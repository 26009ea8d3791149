#include "src/telemetry/metrics.h"

#include <algorithm>

#include "src/util/logging.h"

namespace thinc {

Histogram::Histogram(std::vector<int64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  THINC_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    THINC_CHECK_MSG(bounds_[i] > bounds_[i - 1],
                    "histogram bounds must be strictly ascending");
  }
}

std::vector<int64_t> Histogram::ExponentialBounds(int64_t first, double factor,
                                                  int n) {
  THINC_CHECK(first > 0 && factor > 1.0 && n > 0);
  std::vector<int64_t> bounds;
  double bound = static_cast<double>(first);
  for (int i = 0; i < n; ++i) {
    int64_t b = static_cast<int64_t>(bound);
    if (!bounds.empty() && b <= bounds.back()) {
      b = bounds.back() + 1;  // rounding must not break strict ascent
    }
    bounds.push_back(b);
    bound *= factor;
  }
  return bounds;
}

void Histogram::Observe(int64_t v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      ++buckets_[i];
      return;
    }
  }
  ++buckets_.back();  // overflow
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_);
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const int64_t before = cumulative;
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) < rank) {
      continue;
    }
    // Linear interpolation across this bucket's value range. The overflow
    // bucket has no upper bound; use the observed max.
    const double lo =
        static_cast<double>(i == 0 ? 0 : bounds_[i - 1]);
    const double hi = static_cast<double>(i < bounds_.size() ? bounds_[i] : max_);
    const double fraction =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets_[i]);
    const double value = lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
    return std::clamp(value, static_cast<double>(min_), static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> upper_bounds) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> out;
  for (const auto& [name, c] : counters_) {
    out.push_back(Sample{name, static_cast<double>(c->value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back(Sample{name, static_cast<double>(g->value())});
    out.push_back(Sample{name + ".max", static_cast<double>(g->max())});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back(Sample{name + ".count", static_cast<double>(h->count())});
    out.push_back(Sample{name + ".mean", h->mean()});
    out.push_back(Sample{name + ".p50", h->Percentile(50)});
    out.push_back(Sample{name + ".p95", h->Percentile(95)});
    out.push_back(Sample{name + ".p99", h->Percentile(99)});
    out.push_back(Sample{name + ".max", static_cast<double>(h->max())});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

}  // namespace thinc
