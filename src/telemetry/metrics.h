// MetricsRegistry: named counters, gauges, and fixed-bucket histograms for
// the whole simulation.
//
// The registry is the always-on half of the telemetry subsystem: a metric is
// a plain int64 behind a stable pointer, so call sites resolve the name once
// (function-local static) and then pay one add per event — cheap enough to
// stay enabled in every bench. Virtual-time spans, trace export, and the
// flight recorder (the opt-in half) live in telemetry.h.
//
// Naming scheme (see DESIGN.md §10): dot-separated `<subsystem>.<metric>`,
// lower_snake case, e.g. `net.delivered_bytes`, `queue.evicted_commands`,
// `codec.delta_hits`. Histograms export derived samples with a suffixed name
// (`net.nic.wait_us.p95`).
#ifndef THINC_SRC_TELEMETRY_METRICS_H_
#define THINC_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace thinc {

class Counter {
 public:
  void Inc(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// A level (queue depth, live bytes) with a high-water mark.
class Gauge {
 public:
  void Set(int64_t v) {
    value_ = v;
    if (v > max_) {
      max_ = v;
    }
  }
  void Add(int64_t delta) { Set(value_ + delta); }
  int64_t value() const { return value_; }
  int64_t max() const { return max_; }
  void Reset() {
    value_ = 0;
    max_ = 0;
  }

 private:
  int64_t value_ = 0;
  int64_t max_ = 0;
};

// Fixed ascending upper bounds plus an overflow bucket. An observation lands
// in the first bucket whose bound it does not exceed (v <= bound). Bounds are
// chosen at registration and never change, so Observe() is a linear scan over
// a handful of int64s — no allocation, no sorting.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> upper_bounds);

  // n bounds: first, first*factor, first*factor^2, ...
  static std::vector<int64_t> ExponentialBounds(int64_t first, double factor,
                                                int n);

  void Observe(int64_t v);
  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }

  // Percentile in [0, 100] by linear interpolation within the bucket holding
  // the rank; clamped to the observed [min, max]. 0 when empty.
  double Percentile(double p) const;

  const std::vector<int64_t>& upper_bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<int64_t>& bucket_counts() const { return buckets_; }
  void Reset();

 private:
  std::vector<int64_t> bounds_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  // Process-wide registry (the simulation is single-threaded; matches the
  // BufferStats::Get() idiom).
  static MetricsRegistry& Get();

  // Idempotent by name; the returned pointer is stable for the registry's
  // lifetime, so call sites cache it in a function-local static.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `upper_bounds` is used on first registration only.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> upper_bounds);

  // Zeroes every owned counter/gauge/histogram (phase boundary).
  void ResetAll();

  struct Sample {
    std::string name;
    double value = 0;
  };
  // Flat name->value view, sorted by name; histograms expand into .count,
  // .mean, .p50, .p95, .p99, .max samples.
  std::vector<Sample> Snapshot() const;

 private:
  MetricsRegistry() = default;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace thinc

#endif  // THINC_SRC_TELEMETRY_METRICS_H_
