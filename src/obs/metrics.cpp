#include "obs/metrics.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace lar::obs {

namespace {

/// Canonical text form of a label set: keys sorted, `k="v"` joined by ','.
/// Doubles as the map key, so families iterate instruments canonically.
std::string canonical_label_key(const Labels& labels) {
  std::string out;
  for (const Label& l : labels) {
    if (!out.empty()) out += ',';
    out += l.key;
    out += "=\"";
    out += l.value;
    out += '"';
  }
  return out;
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  LAR_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

// --- Registry ----------------------------------------------------------------

Registry::Instrument& Registry::intern(std::string_view name, Labels labels,
                                       std::string_view help,
                                       MetricKind kind) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string label_key = canonical_label_key(labels);

  auto fam_it = families_.find(name);
  if (fam_it == families_.end()) {
    fam_it = families_
                 .emplace(std::string(name),
                          Family{kind, std::string(help), {}})
                 .first;
  }
  Family& family = fam_it->second;
  LAR_CHECK(family.kind == kind);  // one kind per family name
  auto [it, inserted] = family.by_labels.try_emplace(std::move(label_key));
  if (inserted) it->second.labels = std::move(labels);
  return it->second;
}

Counter& Registry::counter(std::string_view name, Labels labels,
                           std::string_view help) {
  std::lock_guard lock(mutex_);
  Instrument& ins =
      intern(name, std::move(labels), help, MetricKind::kCounter);
  if (!ins.counter) ins.counter = std::make_unique<Counter>();
  return *ins.counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels,
                       std::string_view help) {
  std::lock_guard lock(mutex_);
  Instrument& ins = intern(name, std::move(labels), help, MetricKind::kGauge);
  if (!ins.gauge) ins.gauge = std::make_unique<Gauge>();
  return *ins.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds, Labels labels,
                               std::string_view help) {
  std::lock_guard lock(mutex_);
  Instrument& ins =
      intern(name, std::move(labels), help, MetricKind::kHistogram);
  if (!ins.histogram) {
    ins.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *ins.histogram;
}

std::vector<Registry::FamilyView> Registry::families() const {
  std::lock_guard lock(mutex_);
  std::vector<FamilyView> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilyView view{name, family.help, family.kind, {}};
    view.samples.reserve(family.by_labels.size());
    for (const auto& [label_key, ins] : family.by_labels) {
      view.samples.push_back(Sample{&ins.labels, ins.counter.get(),
                                    ins.gauge.get(), ins.histogram.get()});
    }
    out.push_back(std::move(view));
  }
  return out;
}

// --- Scoped ------------------------------------------------------------------

Labels Scoped::merged(Labels labels) const {
  for (const Label& c : constant_) {
    for (const Label& l : labels) {
      LAR_CHECK(l.key != c.key);  // call sites must not shadow a constant key
    }
    labels.push_back(c);
  }
  return labels;
}

}  // namespace lar::obs
