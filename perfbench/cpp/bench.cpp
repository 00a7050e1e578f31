#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lar::bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double quantile_i64(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

// --- Pace ------------------------------------------------------------------

Pace::Pace() : keys_(1 << 18), slots_(1 << 20), sorted_(1 << 16) {}

void Pace::sample() {
  const std::int64_t t0 = now_ns();
  // The same keys every sample, so every sample does the same work.
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x | 1;  // 0 marks an empty slot
  }
  std::fill(slots_.begin(), slots_.end(), 0);
  const std::uint64_t mask = slots_.size() - 1;
  auto home = [](std::uint64_t k) { return (k * 0xBF58476D1CE4E5B9ULL) >> 44; };
  for (const std::uint64_t k : keys_) {
    std::uint64_t i = home(k) & mask;
    while (slots_[i] != 0 && slots_[i] != k) i = (i + 1) & mask;
    slots_[i] = k;
  }
  std::uint64_t missing = 0;
  for (const std::uint64_t k : keys_) {
    std::uint64_t i = home(k ^ 2) & mask;
    while (slots_[i] != 0 && slots_[i] != (k ^ 2)) i = (i + 1) & mask;
    missing += slots_[i] == 0;
  }
  std::copy_n(keys_.begin(), sorted_.size(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  sink_ += missing + sorted_[sorted_.size() / 2];
  ref_s_.push_back(seconds_between(t0, now_ns()));
}

double Pace::ref_s() const {
  return ref_s_.empty() ? kNominalS : median(ref_s_);
}

// --- Ledger ----------------------------------------------------------------

void Ledger::e2e(const std::string& name, double value, const char* unit) {
  e2e_.push_back({name, value, unit});
}
void Ledger::e2e_time(const std::string& name, double raw, const char* unit) {
  e2e_.push_back({name, raw, unit, /*host_scaled=*/true});
}
void Ledger::apply_pace(const Pace& pace) {
  for (auto& e : e2e_) {
    if (!e.host_scaled) continue;
    info("raw." + e.name, e.value, e.unit.c_str());
    e.value *= pace.scale();
  }
  info("pace.ref_ms", pace.ref_s() * 1e3, "ms");
  info("pace.samples", static_cast<double>(pace.samples()), "count");
}
void Ledger::layer(const std::string& name, double value, const char* unit) {
  layers_.push_back({name, value, unit});
}
void Ledger::exact(const std::string& name, double value) {
  exacts_.push_back({name, value, ""});
}
void Ledger::info(const std::string& name, double value, const char* unit) {
  infos_.push_back({name, value, unit});
}

void Ledger::check(bool ok, const std::string& what) {
  checks(1, ok ? 0 : 1, what);
}

void Ledger::checks(std::uint64_t n, std::uint64_t failed,
                    const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed != 0) {
    std::fprintf(stderr, "CHECK FAILED: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(n));
  }
}

// --- Watchdog --------------------------------------------------------------

Watchdog::Watchdog(double run_deadline_s)
    : run_deadline_ns_(now_ns() +
                       static_cast<std::int64_t>(run_deadline_s * 1e9)),
      thread_([this] { monitor(); }) {}

Watchdog::~Watchdog() {
  stop_.store(true);
  thread_.join();
}

void Watchdog::monitor() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::int64_t now = now_ns();
    const char* overran = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (phase_deadline_ns_ != 0 && now > phase_deadline_ns_) {
        overran = phase_;
      } else if (now > run_deadline_ns_) {
        overran = "run";
      }
    }
    if (overran != nullptr) {
      // Threads stuck inside the engine cannot be joined; end the process
      // as a failed run instead of hanging.
      std::fprintf(stderr, "FAILED: phase '%s' overran its deadline\n",
                   overran);
      std::printf(
          "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
          "\"metrics\": {}}\n");
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }
}

Watchdog::Phase::Phase(Watchdog& dog, const char* name, double limit_s)
    : dog_(dog) {
  std::lock_guard<std::mutex> lock(dog_.mutex_);
  prev_name_ = dog_.phase_;
  prev_deadline_ = dog_.phase_deadline_ns_;
  dog_.phase_ = name;
  dog_.phase_deadline_ns_ =
      now_ns() + static_cast<std::int64_t>(limit_s * 1e9);
}

Watchdog::Phase::~Phase() {
  std::lock_guard<std::mutex> lock(dog_.mutex_);
  dog_.phase_ = prev_name_;
  dog_.phase_deadline_ns_ = prev_deadline_;
}

// --- BenchCounter ----------------------------------------------------------

void BenchCounter::process(const Tuple& tuple, runtime::Emitter& emitter) {
  ++counts_[tuple.fields[key_field_]];
  if (!last_stage_) {
    emitter.emit(tuple);
  } else if (tuple.fields.size() > kStampField) {
    latencies_ns_.push_back(
        now_ns() - static_cast<std::int64_t>(tuple.fields[kStampField]));
  }
}

std::vector<std::byte> BenchCounter::export_key_state(Key key) {
  const auto it = counts_.find(key);
  if (it == counts_.end()) return {};
  std::vector<std::byte> out(sizeof(std::uint64_t));
  std::memcpy(out.data(), &it->second, sizeof(std::uint64_t));
  return out;
}

void BenchCounter::import_key_state(Key key,
                                    std::span<const std::byte> state) {
  if (state.size() != sizeof(std::uint64_t)) return;
  std::uint64_t value = 0;
  std::memcpy(&value, state.data(), sizeof(std::uint64_t));
  counts_[key] += value;  // additive: partial counts merge on import
}

void BenchCounter::drop_key_state(Key key) { counts_.erase(key); }

std::vector<Key> BenchCounter::owned_keys() const {
  std::vector<Key> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lar::bench
