// Length-prefixed, CRC-32-bound message frames over a byte stream —
// the wire unit of the distributed engine (src/dist/).
//
// Frame layout (all integers little-endian on the wire, regardless of
// host order):
//
//   offset  size  field
//        0     4  magic   "IBAF" (0x46414249)
//        4     4  type    message type (opaque to this layer)
//        8     4  length  payload byte count
//       12     4  crc32   CRC-32 over type ‖ length ‖ payload
//       16     …  payload
//
// The CRC covers the type and length fields as well as the payload, so
// a bit flip anywhere past the magic is detected; the magic itself
// guards against stream desynchronization. read_frame enforces a
// caller-chosen payload ceiling before allocating, and reads the payload
// in 1 MiB steps, so a corrupt length below the ceiling allocates at most
// one step beyond the bytes that actually arrive. Truncation surfaces as
// PeerClosed from the underlying read_full; corruption as FrameError.
//
// WireWriter/WireReader are the little-endian scalar codecs the dist
// protocol builds its payloads with — fixed-width, no varints, so every
// encoded message is byte-deterministic across platforms.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace iba::net {

/// Corrupt or malformed frame: bad magic, CRC mismatch, payload over
/// the ceiling, or a payload decode running past its end.
class FrameError : public NetError {
 public:
  explicit FrameError(const std::string& what) : NetError(what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0x46414249u;  // "IBAF"
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Default payload ceiling: a round frame at n = 10⁸ with a full pool
/// stays well under this; anything larger is corruption.
inline constexpr std::uint32_t kDefaultMaxPayload = 1u << 30;

/// Writes one frame (header + payload) to `fd`. Throws PeerClosed /
/// NetError from the underlying write.
void write_frame(int fd, std::uint32_t type,
                 std::span<const std::uint8_t> payload);

/// Reads one frame from `fd` into `type` / `payload` (resized to fit).
/// Returns false on a clean EOF before the first header byte (peer
/// done). Throws FrameError on bad magic, oversized length, or CRC
/// mismatch; PeerClosed on truncation mid-frame.
[[nodiscard]] bool read_frame(int fd, std::uint32_t& type,
                              std::vector<std::uint8_t>& payload,
                              std::uint32_t max_payload = kDefaultMaxPayload);

/// Appends little-endian scalars to a growing payload buffer.
class WireWriter {
 public:
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  /// Length-prefixed UTF-8/byte string.
  void str(const std::string& value) {
    u32(static_cast<std::uint32_t>(value.size()));
    buffer_.insert(buffer_.end(), value.begin(), value.end());
  }
  void u64_vec(const std::vector<std::uint64_t>& values) {
    u32(static_cast<std::uint32_t>(values.size()));
    for (const std::uint64_t v : values) u64(v);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return buffer_;
  }
  void clear() noexcept { buffer_.clear(); }
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian decoder over one received payload.
/// Every overrun throws FrameError naming the field, so a truncated or
/// type-confused payload can never read out of bounds.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += 4;
    return value;
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += 8;
    return value;
  }
  [[nodiscard]] std::string str(const char* what) {
    const std::uint32_t size = u32(what);
    need(size, what);
    std::string value(reinterpret_cast<const char*>(data_.data() + offset_),
                      size);
    offset_ += size;
    return value;
  }
  [[nodiscard]] std::vector<std::uint64_t> u64_vec(const char* what) {
    const std::uint32_t count = u32(what);
    need(static_cast<std::size_t>(count) * 8, what);
    std::vector<std::uint64_t> values(count);
    for (std::uint32_t i = 0; i < count; ++i) values[i] = u64(what);
    return values;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  /// Call after the last field: trailing bytes mean a version/type skew.
  void expect_end(const char* what) const {
    if (offset_ != data_.size()) {
      throw FrameError(std::string("frame: trailing bytes after ") + what);
    }
  }

 private:
  void need(std::size_t bytes, const char* what) const {
    if (data_.size() - offset_ < bytes) {
      throw FrameError(std::string("frame: truncated payload at ") + what);
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace iba::net
