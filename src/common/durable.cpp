#include "common/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/crc32.hpp"

namespace iba::common {

namespace {

using durable_testing::Call;

[[noreturn]] void fail(const std::string& context, const std::string& why) {
  throw std::runtime_error(context + ": " + why);
}

durable_testing::Hook g_hook;

bool refused(Call call, const std::string& path) {
  return g_hook && g_hook(call, path);
}

std::string directory_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash == 0 ? 1 : slash);
}

/// Parses an unsigned decimal of at most `max` at `at` and advances
/// `at` past it.
bool take_number(const char*& at, const char* end, std::uint64_t max,
                 std::uint64_t& value) {
  const auto [next, ec] = std::from_chars(at, end, value);
  if (ec != std::errc{} || value > max) return false;
  at = next;
  return true;
}

}  // namespace

void write_atomic(const std::string& path, std::string_view bytes,
                  const std::string& context) {
  const std::string tmp = path + ".tmp";
  std::FILE* out =
      refused(Call::kOpen, tmp) ? nullptr : std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) fail(context, "cannot open for writing: " + tmp);
  bool ok = !refused(Call::kWrite, tmp) &&
            std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size() &&
            std::fflush(out) == 0 && !refused(Call::kFsync, tmp) &&
            ::fsync(::fileno(out)) == 0;
  const bool close_refused = refused(Call::kClose, tmp);
  ok = std::fclose(out) == 0 && !close_refused && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    fail(context, "write error: " + tmp);
  }
  if (refused(Call::kRename, path) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(context, "cannot rename " + tmp + " -> " + path);
  }
  // Persist the rename itself: until the directory entry is on disk a
  // power loss may still bring back the old file.
  const std::string dir = directory_of(path);
  const int dirfd = refused(Call::kDirOpen, dir)
                        ? -1
                        : ::open(dir.c_str(), O_RDONLY | O_DIRECTORY |
                                                  O_CLOEXEC);
  if (dirfd < 0) fail(context, "cannot open directory " + dir);
  const bool synced = !refused(Call::kDirFsync, dir) && ::fsync(dirfd) == 0;
  ::close(dirfd);
  if (!synced) fail(context, "cannot fsync directory " + dir);
}

std::string seal_envelope(std::string_view magic, std::uint32_t version,
                          std::string_view body) {
  std::string out;
  out.reserve(magic.size() + 40 + body.size());
  out.append(magic);
  out += ' ' + std::to_string(version) + ' ' +
         std::to_string(crc32(body)) + ' ' + std::to_string(body.size()) +
         '\n';
  out.append(body);
  return out;
}

Envelope open_envelope(const std::string& path, std::string_view magic,
                       std::uint32_t min_version, std::uint32_t max_version,
                       const std::string& context) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(context, "cannot open for reading: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0 || !in) fail(context, "cannot read: " + path);
  const auto size = static_cast<std::uint64_t>(end);

  // Read no more than the longest possible header line (magic plus
  // three numbers) before any field of it is trusted.
  std::string head(std::min<std::uint64_t>(size, magic.size() + 64), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (static_cast<std::size_t>(in.gcount()) != head.size()) {
    fail(context, "read error: " + path);
  }
  const std::size_t eol = head.find('\n');
  if (eol == std::string::npos) fail(context, "truncated/invalid header");
  const std::string_view line(head.data(), eol);
  const std::string bad_header = "bad header '" + std::string(line) + "'";

  const std::size_t space = line.find(' ');
  if (line.substr(0, space) != magic) {
    fail(context, "bad magic '" + std::string(line.substr(0, space)) +
                      "' (expected '" + std::string(magic) + "')");
  }
  if (space == std::string_view::npos) fail(context, bad_header);
  const char* at = line.data() + space + 1;
  const char* const end_of_line = line.data() + line.size();
  std::uint64_t version = 0;
  std::uint64_t crc = 0;
  std::uint64_t length = 0;
  // The version is judged first, so a foreign version is named as such
  // even when the rest of its header is laid out differently.
  if (!take_number(at, end_of_line, UINT64_MAX, version)) {
    fail(context, bad_header);
  }
  if (version < min_version || version > max_version) {
    fail(context, "unsupported version " + std::to_string(version) +
                      " (expected " + std::to_string(min_version) +
                      (min_version == max_version
                           ? ""
                           : ".." + std::to_string(max_version)) +
                      ")");
  }
  if (at == end_of_line || *at++ != ' ' ||
      !take_number(at, end_of_line, UINT32_MAX, crc) ||
      at == end_of_line || *at++ != ' ' ||
      !take_number(at, end_of_line, UINT64_MAX, length) ||
      at != end_of_line) {
    fail(context, bad_header);
  }

  const std::uint64_t body_bytes = size - (eol + 1);
  if (length != body_bytes) {
    fail(context, "body length mismatch: header says " +
                      std::to_string(length) + " bytes, file has " +
                      std::to_string(body_bytes));
  }
  Envelope envelope{static_cast<std::uint32_t>(version),
                    std::string(static_cast<std::size_t>(length), '\0')};
  in.seekg(static_cast<std::streamoff>(eol + 1));
  in.read(envelope.body.data(), static_cast<std::streamsize>(length));
  if (static_cast<std::uint64_t>(in.gcount()) != length) {
    fail(context, "read error: " + path);
  }
  if (crc32(envelope.body) != crc) fail(context, "CRC mismatch (corrupt file)");
  return envelope;
}

std::string seal_trailer(std::string text) {
  text += "crc32 = " + crc32_hex(text) + '\n';
  return text;
}

void verify_trailer(std::string_view text, std::string_view magic,
                    std::uint32_t version, const std::string& context) {
  const std::size_t first_eol = text.find('\n');
  if (first_eol == std::string_view::npos) {
    fail(context, "truncated: no header line");
  }
  const std::string_view header = text.substr(0, first_eol);
  const char* at = header.data() + std::min(header.size(), magic.size() + 1);
  const char* const end_of_line = header.data() + header.size();
  std::uint64_t stated_version = 0;
  if (header.size() <= magic.size() || !header.starts_with(magic) ||
      header[magic.size()] != ' ' ||
      !take_number(at, end_of_line, UINT64_MAX, stated_version) ||
      at != end_of_line) {
    fail(context, "bad header '" + std::string(header) + "'");
  }
  if (stated_version != version) {
    fail(context, "unsupported version " + std::to_string(stated_version) +
                      " (expected " + std::to_string(version) + ")");
  }
  // The trailer is the final line, `crc32 = <8 hex>\n`, right after the
  // body's `end` line; its CRC covers every byte before it.
  constexpr std::string_view kEnd = "end\n";
  constexpr std::string_view kPrefix = "crc32 = ";
  constexpr std::size_t kTrailerLen = kPrefix.size() + 8 + 1;
  if (text.size() < kTrailerLen || text.back() != '\n') {
    fail(context, "truncated: missing crc trailer");
  }
  const std::size_t trailer_at = text.size() - kTrailerLen;
  if (text.substr(trailer_at, kPrefix.size()) != kPrefix ||
      trailer_at < first_eol + 1 + kEnd.size() ||
      text.substr(trailer_at - kEnd.size(), kEnd.size()) != kEnd) {
    fail(context, "malformed crc trailer");
  }
  const std::string_view stated = text.substr(trailer_at + kPrefix.size(), 8);
  const std::string actual = crc32_hex(text.substr(0, trailer_at));
  if (stated != actual) {
    fail(context, "crc mismatch: stated " + std::string(stated) +
                      ", computed " + actual);
  }
}

std::string open_trailer(const std::string& path, std::string_view magic,
                         std::uint32_t version, const std::string& context) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(context, "cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  verify_trailer(text, magic, version, context);
  return text;
}

namespace durable_testing {

void set_hook(Hook hook) { g_hook = std::move(hook); }

}  // namespace durable_testing

}  // namespace iba::common
