#include "trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int32_t Tracer::begin(std::string_view name, std::uint64_t round) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.round = round;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
}

void Tracer::write_csv(std::ostream& out) const {
  out << "id,name,start_ns,end_ns,parent,round\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.round << '\n';
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, spans[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::size_t unbalanced_roots(const std::vector<Span>& spans,
                             const std::vector<std::int64_t>& self,
                             std::string_view root) {
  // A child always has a larger id than its parent, so one reverse pass
  // folds every subtree's self time into its root.
  std::vector<std::int64_t> subtree(self);
  for (std::size_t i = spans.size(); i-- > 0;) {
    if (spans[i].parent >= 0) {
      subtree[static_cast<std::size_t>(spans[i].parent)] += subtree[i];
    }
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root && subtree[i] != spans[i].duration()) ++bad;
  }
  return bad;
}

}  // namespace perfbench
