#pragma once

#include <string>
#include <vector>

#include "sim/time.hpp"

namespace photorack::obs {

/// A fixed-column time series.  Its one writer (cosim::RackCosim, which
/// schedules a sampler every interval() on its own event queue) names the
/// value columns once and then appends one row of values per tick, in that
/// column order.
///
/// Rows serialize through the same column/row string shape the scenario
/// CSV/JSONL writers take, so a metrics file carries the exact dialect of
/// every other campaign artifact.
class MetricsSeries {
 public:
  explicit MetricsSeries(sim::TimePs interval) : interval_(interval) {}

  /// Period at which the writer samples a row.
  [[nodiscard]] sim::TimePs interval() const { return interval_; }

  /// Name the value columns; once the first row exists they are fixed
  /// (std::logic_error).
  void set_columns(std::vector<std::string> names);

  /// Append the row at time `t_ms`, one value per column.  Throws
  /// std::invalid_argument when time goes backwards or the width is wrong.
  void sample(double t_ms, std::vector<double> values);

  /// "time_ms" followed by the value columns.
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
  sim::TimePs interval_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

}  // namespace photorack::obs
