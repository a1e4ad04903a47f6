// Durable files: the one atomic write and the two CRC-32 envelopes that
// every on-disk format of the repo is built on (docs/ROBUSTNESS.md).
// Each format is a body codec on top of these; none reads or writes a
// header or a trailer by hand.
//
//  * Leading header: `<magic> <version> <crc32> <body bytes>\n<body>` —
//    checkpoint, `.progress` and `.record` sidecars, dist shard and
//    manifest.
//  * Trailing CRC: `<magic> <version>\n<body>end\ncrc32 = <8 hex>\n`,
//    the CRC over every byte before the trailer line — the result
//    artifact and the postmortem bundle, which are read and diffed as
//    plain text.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace iba::common {

/// Replaces `path` with `bytes`: writes `<path>.tmp`, fflush + fsync,
/// close, rename over `path`, fsync of the directory. A crash at any
/// point leaves the old file or the complete new one. On failure
/// removes the tmp file and throws std::runtime_error prefixed with
/// `context`.
void write_atomic(const std::string& path, std::string_view bytes,
                  const std::string& context);

/// `body` under the leading header.
[[nodiscard]] std::string seal_envelope(std::string_view magic,
                                        std::uint32_t version,
                                        std::string_view body);

struct Envelope {
  std::uint32_t version = 0;
  std::string body;
};

/// Reads `path` and checks magic, a version in [min_version,
/// max_version], a file length of exactly header + body bytes — before
/// the body is allocated, so a corrupt length field can neither
/// allocate gigabytes nor hide appended bytes — and the body CRC.
/// Throws std::runtime_error prefixed with `context` on any mismatch.
[[nodiscard]] Envelope open_envelope(const std::string& path,
                                     std::string_view magic,
                                     std::uint32_t min_version,
                                     std::uint32_t max_version,
                                     const std::string& context);

/// Appends the `crc32 = <8 hex>` line to `text`, which ends in "end\n".
[[nodiscard]] std::string seal_trailer(std::string text);

/// Checks a first line of exactly `<magic> <version>` and a final
/// `crc32 = ` line right after "end\n" whose CRC matches. Throws
/// std::runtime_error prefixed with `context` otherwise.
void verify_trailer(std::string_view text, std::string_view magic,
                    std::uint32_t version, const std::string& context);

/// Reads `path` whole and verify_trailer()s it; returns the text.
[[nodiscard]] std::string open_trailer(const std::string& path,
                                       std::string_view magic,
                                       std::uint32_t version,
                                       const std::string& context);

/// Test seam over the system calls of write_atomic; nothing in the
/// library sets it.
namespace durable_testing {

enum class Call {
  kOpen,      ///< fopen of `<path>.tmp`
  kWrite,     ///< fwrite + fflush of the bytes
  kFsync,     ///< fsync of the tmp file
  kClose,     ///< fclose of the tmp file
  kRename,    ///< rename of `<path>.tmp` over `<path>`
  kDirOpen,   ///< open of the containing directory
  kDirFsync,  ///< fsync of the containing directory
};

/// Called before each call with the path it acts on; returning true
/// makes that call fail. Empty (the default) injects nothing. Set it
/// only while no write runs.
using Hook = std::function<bool(Call call, const std::string& path)>;
void set_hook(Hook hook);

}  // namespace durable_testing

}  // namespace iba::common
