#include "obs/metrics.hpp"

#include <charconv>
#include <stdexcept>

namespace photorack::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::add(Kind kind, const std::string& name,
                                         double relative_error) {
  if (name.empty()) throw std::invalid_argument("MetricsRegistry: empty metric name");
  for (const Metric& m : metrics_)
    if (m.name == name)
      throw std::invalid_argument("MetricsRegistry: duplicate metric '" + name + "'");
  if (!rows_.empty())
    throw std::logic_error("MetricsRegistry: cannot register '" + name +
                           "' after sampling started (columns would shift)");
  metrics_.emplace_back(kind, name, relative_error);
  return metrics_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  return add(Kind::kCounter, name, 0.01);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  return add(Kind::kGauge, name, 0.01);
}

MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name,
                                               double relative_error) {
  return add(Kind::kHistogram, name, relative_error);
}

void MetricsRegistry::inc(Id id, double delta) {
  Metric& m = metrics_.at(id);
  if (m.kind != Kind::kCounter)
    throw std::logic_error("MetricsRegistry: inc() on non-counter '" + m.name + "'");
  if (delta < 0.0)
    throw std::invalid_argument("MetricsRegistry: counter '" + m.name +
                                "' cannot decrease");
  m.value += delta;
}

void MetricsRegistry::set(Id id, double value) {
  Metric& m = metrics_.at(id);
  if (m.kind != Kind::kGauge)
    throw std::logic_error("MetricsRegistry: set() on non-gauge '" + m.name + "'");
  m.value = value;
}

void MetricsRegistry::observe(Id id, double value) {
  Metric& m = metrics_.at(id);
  if (m.kind != Kind::kHistogram)
    throw std::logic_error("MetricsRegistry: observe() on non-histogram '" + m.name + "'");
  m.sketch.add(value);
}

double MetricsRegistry::value(Id id) const {
  const Metric& m = metrics_.at(id);
  return m.kind == Kind::kHistogram ? static_cast<double>(m.sketch.count()) : m.value;
}

void MetricsRegistry::sample(double t_ms) {
  if (!rows_.empty() && t_ms < rows_.back().t_ms)
    throw std::invalid_argument("MetricsRegistry: sample time went backwards");
  Row row;
  row.t_ms = t_ms;
  row.values.reserve(metrics_.size() * 2);
  for (const Metric& m : metrics_) {
    if (m.kind == Kind::kHistogram) {
      row.values.push_back(m.sketch.quantile_or(0.5, 0.0));
      row.values.push_back(m.sketch.quantile_or(0.99, 0.0));
    } else {
      row.values.push_back(m.value);
    }
  }
  rows_.push_back(std::move(row));
}

std::vector<std::string> MetricsRegistry::columns() const {
  std::vector<std::string> cols;
  cols.push_back("time_ms");
  for (const Metric& m : metrics_) {
    if (m.kind == Kind::kHistogram) {
      cols.push_back(m.name + "_p50");
      cols.push_back(m.name + "_p99");
    } else {
      cols.push_back(m.name);
    }
  }
  return cols;
}

std::vector<std::vector<std::string>> MetricsRegistry::string_rows() const {
  std::vector<std::vector<std::string>> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.values.size() + 1);
    cells.push_back(fmt_double(row.t_ms));
    for (const double v : row.values) cells.push_back(fmt_double(v));
    out.push_back(std::move(cells));
  }
  return out;
}

}  // namespace photorack::obs
