#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace photorack::obs {

/// Named per-layer metrics plus a time-series sampler.
///
/// Layers register counters (monotone totals), gauges (last-set level) and
/// histograms (sim::QuantileSketch-backed, surfaced as p50/p99 columns) ONCE
/// at wiring time and then update them by integer id — updates are a vector
/// store/add, cheap enough for event-loop hot paths.  A periodic driver
/// (cosim::RackCosim schedules one on its own event queue) calls sample()
/// to snapshot every metric into one time-series row.
///
/// Rows serialize through the same column/row string shape the scenario
/// CSV/JSONL writers take, so a metrics file carries the exact dialect of
/// every other campaign artifact.
class MetricsRegistry {
 public:
  using Id = std::size_t;

  /// Register a metric; names must be unique across all three kinds
  /// (duplicates throw std::invalid_argument).  Registration order is
  /// column order.
  Id counter(const std::string& name);
  Id gauge(const std::string& name);
  Id histogram(const std::string& name, double relative_error = 0.01);

  void inc(Id id, double delta = 1.0);
  void set(Id id, double value);
  void observe(Id id, double value);  // histogram only

  /// Current level of a counter/gauge (histograms: sample count).
  [[nodiscard]] double value(Id id) const;

  /// Snapshot every metric at time `t_ms` into one row.  Histograms emit
  /// their p50/p99 at the sample point (0 when still empty).
  void sample(double t_ms);

  /// "time_ms" followed by one column per metric in registration order;
  /// histograms contribute `<name>_p50` and `<name>_p99`.
  [[nodiscard]] std::vector<std::string> columns() const;

  struct Row {
    double t_ms = 0.0;
    std::vector<double> values;  // parallel to columns() minus time_ms
  };
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  /// Rows as strings in the scenario writers' cell dialect (shortest
  /// round-trip doubles), parallel to columns().
  [[nodiscard]] std::vector<std::vector<std::string>> string_rows() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Metric {
    Kind kind;
    std::string name;
    double value = 0.0;             // counter/gauge level
    sim::QuantileSketch sketch;     // histogram only
    explicit Metric(Kind k, std::string n, double relative_error)
        : kind(k), name(std::move(n)), sketch(relative_error) {}
  };

  Id add(Kind kind, const std::string& name, double relative_error);

  std::vector<Metric> metrics_;
  std::vector<Row> rows_;
};

}  // namespace photorack::obs
