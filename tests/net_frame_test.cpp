// Wire-level tests for the framed transport (net/frame.hpp) over real
// AF_UNIX socketpairs: round trips, every corruption class the header
// promises to detect (bit flips under the CRC, bad magic, oversized
// length, truncation), the allocation bound under a corrupt length, and
// partial-read reassembly when the sender dribbles bytes.
#include "net/frame.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

// -- allocation recorder ------------------------------------------------
// Every allocation of this binary goes through these operators, which
// remember the largest request since the last reset: a reader that sizes
// a buffer from a corrupt length field shows up there.
namespace {

std::atomic<std::size_t> g_largest_request{0};

void* recorded_alloc(std::size_t size) {
  std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_request.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return recorded_alloc(size); }
void* operator new[](std::size_t size) { return recorded_alloc(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace iba::net {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

TEST(NetFrameTest, RoundTripPreservesTypeAndPayload) {
  auto [a, b] = socket_pair();
  const std::vector<std::uint8_t> sent = bytes_of("hello, frames");
  write_frame(a.fd(), 7, sent);

  std::uint32_t type = 0;
  std::vector<std::uint8_t> received;
  ASSERT_TRUE(read_frame(b.fd(), type, received));
  EXPECT_EQ(type, 7u);
  EXPECT_EQ(received, sent);
}

TEST(NetFrameTest, EmptyPayloadRoundTrips) {
  auto [a, b] = socket_pair();
  write_frame(a.fd(), 42, {});
  std::uint32_t type = 0;
  std::vector<std::uint8_t> received{0xAA};  // must be cleared by the read
  ASSERT_TRUE(read_frame(b.fd(), type, received));
  EXPECT_EQ(type, 42u);
  EXPECT_TRUE(received.empty());
}

TEST(NetFrameTest, BackToBackFramesStaySynchronized) {
  auto [a, b] = socket_pair();
  for (std::uint32_t i = 0; i < 16; ++i) {
    write_frame(a.fd(), i, bytes_of(std::string(i * 7, 'x')));
  }
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(read_frame(b.fd(), type, payload));
    EXPECT_EQ(type, i);
    EXPECT_EQ(payload.size(), i * 7);
  }
}

TEST(NetFrameTest, CleanEofBeforeHeaderReturnsFalse) {
  auto [a, b] = socket_pair();
  a.close();
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(read_frame(b.fd(), type, payload));
}

// Captures one encoded frame by writing it into a socketpair and
// draining the bytes — so corruption tests operate on exactly what the
// production encoder emits.
std::vector<std::uint8_t> encode_frame(std::uint32_t type,
                                       const std::vector<std::uint8_t>& body) {
  auto [a, b] = socket_pair();
  write_frame(a.fd(), type, body);
  std::vector<std::uint8_t> wire(kFrameHeaderBytes + body.size());
  read_full(b.fd(), wire.data(), wire.size());
  return wire;
}

void write_raw(int fd, const std::vector<std::uint8_t>& wire) {
  write_full(fd, wire.data(), wire.size());
}

TEST(NetFrameTest, EveryBitFlipPastTheMagicIsRejected) {
  const std::vector<std::uint8_t> wire = encode_frame(3, bytes_of("payload"));
  // Flip one bit in each byte of type, length, crc, and payload; every
  // mutant must be rejected (the CRC covers all of them).
  for (std::size_t i = 4; i < wire.size(); ++i) {
    std::vector<std::uint8_t> mutant = wire;
    mutant[i] ^= 0x10;
    auto [a, b] = socket_pair();
    write_raw(a.fd(), mutant);
    a.close();
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
    // A flipped length byte usually announces more payload than was
    // sent, which surfaces as truncation (PeerClosed) rather than a CRC
    // mismatch; both reject the frame. NetError covers the two.
    EXPECT_THROW((void)read_frame(b.fd(), type, payload), NetError)
        << "bit flip at offset " << i << " slipped through";
  }
}

TEST(NetFrameTest, BadMagicIsRejected) {
  std::vector<std::uint8_t> wire = encode_frame(1, bytes_of("x"));
  wire[0] ^= 0xFF;
  auto [a, b] = socket_pair();
  write_raw(a.fd(), wire);
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)read_frame(b.fd(), type, payload), FrameError);
}

TEST(NetFrameTest, OversizedLengthIsRejectedBeforeAllocating) {
  std::vector<std::uint8_t> wire = encode_frame(1, bytes_of("x"));
  const std::uint32_t huge = 0x40000000u;  // 1 GiB, over a 1 KiB ceiling
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));
  auto [a, b] = socket_pair();
  write_raw(a.fd(), wire);
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)read_frame(b.fd(), type, payload, /*max_payload=*/1024),
               FrameError);
}

TEST(NetFrameTest, LengthBitFlipAllocatesBoundedThenFails) {
  // Under the default 1 GiB ceiling a flipped length bit can announce up
  // to 1 GiB of payload that never arrives. The reader must grow its
  // buffer with the bytes received, so each mutant costs under 2 MiB
  // before it fails (truncation, CRC mismatch or the ceiling).
  std::vector<std::uint8_t> body(300);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 13);
  }
  const std::vector<std::uint8_t> wire = encode_frame(9, body);
  for (int bit = 0; bit < 32; ++bit) {
    std::vector<std::uint8_t> mutant = wire;
    mutant[8 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto [a, b] = socket_pair();
    write_raw(a.fd(), mutant);
    a.close();
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
    g_largest_request.store(0);
    EXPECT_THROW((void)read_frame(b.fd(), type, payload), NetError)
        << "length bit " << bit;
    EXPECT_LT(g_largest_request.load(), std::size_t{2} << 20)
        << "length bit " << bit;
  }
}

TEST(NetFrameTest, TruncationMidFrameThrowsPeerClosed) {
  const std::vector<std::uint8_t> wire = encode_frame(5, bytes_of("truncated"));
  for (const std::size_t keep : {std::size_t{3}, kFrameHeaderBytes,
                                 wire.size() - 1}) {
    auto [a, b] = socket_pair();
    write_full(a.fd(), wire.data(), keep);
    a.close();
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
    EXPECT_THROW((void)read_frame(b.fd(), type, payload), PeerClosed)
        << "with " << keep << " of " << wire.size() << " bytes delivered";
  }
}

TEST(NetFrameTest, PartialReadsReassembleAcrossDribbledWrites) {
  // A sender that trickles one byte at a time exercises read_full's
  // partial-read loop: the reader must block and reassemble, never see
  // a short frame.
  const std::vector<std::uint8_t> body = bytes_of(std::string(257, 'd'));
  const std::vector<std::uint8_t> wire = encode_frame(9, body);
  auto [a, b] = socket_pair();
  std::thread dribbler([&a, &wire] {
    for (const std::uint8_t byte : wire) {
      write_full(a.fd(), &byte, 1);
    }
  });
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(b.fd(), type, payload));
  dribbler.join();
  EXPECT_EQ(type, 9u);
  EXPECT_EQ(payload, body);
}

TEST(NetFrameTest, WireWriterReaderRoundTripAllScalars) {
  WireWriter out;
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.str("label");
  out.u64_vec({1, 2, 3});
  out.str("");  // empty strings are legal

  WireReader in(out.span());
  EXPECT_EQ(in.u32("a"), 0xDEADBEEFu);
  EXPECT_EQ(in.u64("b"), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.str("c"), "label");
  EXPECT_EQ(in.u64_vec("d"), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(in.str("e"), "");
  in.expect_end("test payload");
}

TEST(NetFrameTest, WireReaderRejectsOverrunAndTrailingBytes) {
  WireWriter out;
  out.u32(7);
  WireReader short_read(out.span());
  EXPECT_THROW((void)short_read.u64("needs 8"), FrameError);

  WireReader trailing(out.span());
  EXPECT_THROW(trailing.expect_end("no fields read"), FrameError);

  // A string whose declared length runs past the payload end.
  WireWriter lying;
  lying.u32(1000);
  WireReader reader(lying.span());
  EXPECT_THROW((void)reader.str("truncated string"), FrameError);
}

}  // namespace
}  // namespace iba::net
