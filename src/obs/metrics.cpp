#include "obs/metrics.hpp"

#include <stdexcept>
#include <utility>

#include "sim/table.hpp"

namespace photorack::obs {

void MetricsSeries::set_columns(std::vector<std::string> names) {
  if (!rows_.empty())
    throw std::logic_error("MetricsSeries: columns are fixed once sampling started");
  names_ = std::move(names);
}

void MetricsSeries::sample(double t_ms, std::vector<double> values) {
  if (!rows_.empty() && t_ms < rows_.back().t_ms)
    throw std::invalid_argument("MetricsSeries: sample time went backwards");
  if (values.size() != names_.size())
    throw std::invalid_argument("MetricsSeries: row of " + std::to_string(values.size()) +
                                " values for " + std::to_string(names_.size()) +
                                " columns");
  rows_.push_back({t_ms, std::move(values)});
}

std::vector<std::string> MetricsSeries::columns() const {
  std::vector<std::string> cols;
  cols.reserve(names_.size() + 1);
  cols.push_back("time_ms");
  cols.insert(cols.end(), names_.begin(), names_.end());
  return cols;
}

std::vector<std::vector<std::string>> MetricsSeries::string_rows() const {
  std::vector<std::vector<std::string>> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.values.size() + 1);
    cells.push_back(sim::fmt_double(row.t_ms));
    for (const double v : row.values) cells.push_back(sim::fmt_double(v));
    out.push_back(std::move(cells));
  }
  return out;
}

}  // namespace photorack::obs
