// Spans recorded by the benchmark around its calls into the program.
//
// A span is (name, start, end, parent, round). Spans live in memory for
// the whole run and are written out once, at exit. A layer's self time
// is its span's duration minus the part of it that child spans cover;
// the round span's self time is the remainder no layer explains.
// Nothing inside the program is instrumented: every span wraps one
// public call made from the benchmark's own round loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string_view name;  ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 = root
  std::uint64_t round = 0;   ///< round id, 0 outside the round loop

  [[nodiscard]] std::int64_t duration() const noexcept {
    return end_ns - start_ns;
  }
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open one; returns its id.
  std::int32_t begin(std::string_view name, std::uint64_t round);
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes every span as one CSV row (id,name,start_ns,end_ns,parent,round).
  void write_csv(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing, so the untraced loop runs
/// the same code without reading a clock.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint64_t round = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, round) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Exact integer ns.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Checks that, for every span named `root`, the self times of its
/// whole subtree sum to its duration (children nest inside their parent
/// and do not overlap). Returns the number of roots that fail.
[[nodiscard]] std::size_t unbalanced_roots(const std::vector<Span>& spans,
                                           const std::vector<std::int64_t>& self,
                                           std::string_view root);

}  // namespace perfbench
