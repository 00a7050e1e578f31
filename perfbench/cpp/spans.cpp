#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace lar::bench {

namespace {

// Per-thread stack of open span ids (parents) and the thread's trace index.
struct ThreadState {
  std::vector<std::uint64_t> open;
  std::int64_t index = -1;
};
thread_local ThreadState t_state;

}  // namespace

std::uint64_t Tracer::new_op() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_op_++;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return 0;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (t_state.index < 0) t_state.index = next_thread_++;
  const std::uint64_t parent = t_state.open.empty() ? 0 : t_state.open.back();
  if (op == 0) op = parent == 0 ? next_op_++ : spans_[parent - 1].op;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, id, parent, op,
                        static_cast<std::uint32_t>(t_state.index), start, 0});
  t_state.open.push_back(id);
  return id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = stop;
  if (!t_state.open.empty() && t_state.open.back() == id) {
    t_state.open.pop_back();
  }
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Tracer::SelfTime> Tracer::self_time_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as (start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of child intervals clipped to the span.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SelfTime& agg = by_name[s.name];
    agg.name = s.name;
    agg.count += 1;
    agg.total_s += seconds_between(s.start_ns, s.end_ns);
    agg.self_s += seconds_between(0, s.end_ns - s.start_ns - covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, agg] : by_name) out.push_back(agg);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SelfTime> report = self_time_report();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"self_time\": [");
  for (std::size_t i = 0; i < report.size(); ++i) {
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"count\": %llu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 i == 0 ? "" : ",", report[i].name.c_str(),
                 static_cast<unsigned long long>(report[i].count),
                 report[i].total_s, report[i].self_s);
  }
  std::fprintf(f, "],\n\"spans\": [");
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                 "\"thread\": %u, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace lar::bench
