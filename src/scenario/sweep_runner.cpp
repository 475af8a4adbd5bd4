#include "scenario/sweep_runner.hpp"

#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "config/bindings.hpp"
#include "config/manifest.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace photorack::scenario {

std::size_t SweepResult::col(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (columns[i] == name) return i;
  throw std::out_of_range("SweepResult: no column '" + name + "'");
}

const std::string& SweepResult::cell(const ResultRow& row, const std::string& name) const {
  return row.cells.at(col(name));
}

double SweepResult::num(const ResultRow& row, const std::string& name) const {
  const std::string& v = cell(row, name);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0')
    throw std::invalid_argument("SweepResult: cell '" + name + "' value '" + v +
                                "' is not numeric");
  return x;
}

std::vector<const ResultRow*> SweepResult::where(const Filter& filter) const {
  std::vector<std::size_t> cols;
  cols.reserve(filter.size());
  for (const auto& [name, value] : filter) cols.push_back(col(name));
  std::vector<const ResultRow*> out;
  for (const auto& row : rows) {
    bool match = true;
    for (std::size_t f = 0; f < filter.size() && match; ++f)
      match = row.cells.at(cols[f]) == filter[f].second;
    if (match) out.push_back(&row);
  }
  return out;
}

namespace {

std::string describe(const SweepResult::Filter& filter) {
  std::string desc;
  for (const auto& [name, value] : filter) {
    if (!desc.empty()) desc += ",";
    desc += name + "=" + value;
  }
  return desc;
}

}  // namespace

const ResultRow& SweepResult::find(const Filter& filter) const {
  const auto matches = where(filter);
  if (matches.size() != 1)
    throw std::out_of_range("SweepResult::find(" + describe(filter) + "): " +
                            std::to_string(matches.size()) + " rows match, expected 1");
  return *matches.front();
}

std::vector<double> SweepResult::values(const std::string& name,
                                        const Filter& filter) const {
  std::vector<double> out;
  for (const ResultRow* row : where(filter)) out.push_back(num(*row, name));
  return out;
}

double SweepResult::mean(const std::string& name, const Filter& filter) const {
  const auto v = values(name, filter);
  // Throw rather than average nothing: a stale filter value in a bench
  // wrapper must fail loudly, not report a fake 0.0 measurement.
  if (v.empty())
    throw std::out_of_range("SweepResult::mean('" + name + "', {" + describe(filter) +
                            "}): no rows match");
  return sim::mean_of(v);
}

double SweepResult::max(const std::string& name, const Filter& filter) const {
  const auto v = values(name, filter);
  if (v.empty())
    throw std::out_of_range("SweepResult::max('" + name + "', {" + describe(filter) +
                            "}): no rows match");
  return sim::max_of(v);
}

SweepResult SweepRunner::run(const Campaign& campaign, const SweepGrid& grid,
                             const std::vector<ResultSink*>& sinks) const {
  const auto specs = grid.expand(campaign.name, opt_.base_seed);

  // Every run gets a manifest: campaign identity, seeds, the grid as run
  // (overrides already folded in), and the full resolved parameter tree —
  // enough to reproduce any row from the artifact alone.
  config::Manifest manifest;
  manifest.tool = "photorack_sweep";
  manifest.campaign = campaign.name;
  manifest.base_seed = opt_.base_seed;
  for (const Axis& ax : grid.axes()) manifest.axes.emplace_back(ax.name, ax.values);
  for (const Axis& ov : grid.overrides())
    manifest.overrides.emplace_back(ov.name, ov.values);
  const std::string manifest_json = manifest.to_json(config::registry());

  // Evaluate into per-spec slots so rows serialize in grid order no matter
  // how the workers take the work.  parallel_for rethrows the first
  // scenario failure.
  std::vector<std::vector<ResultRow>> per_spec(specs.size());
  sim::parallel_for(
      specs.size(), [&](std::size_t i) { per_spec[i] = campaign.evaluate(specs[i]); },
      opt_.jobs ? opt_.jobs : std::thread::hardware_concurrency());

  SweepResult result;
  result.columns = campaign.columns;
  result.manifest_json = manifest_json;
  for (ResultSink* sink : sinks) sink->manifest(manifest_json);
  for (ResultSink* sink : sinks) sink->open(result.columns);
  for (auto& rows : per_spec) {
    for (auto& row : rows) {
      if (row.cells.size() != result.columns.size())
        throw std::logic_error("campaign '" + campaign.name + "' emitted a row with " +
                               std::to_string(row.cells.size()) + " cells for " +
                               std::to_string(result.columns.size()) + " columns");
      for (ResultSink* sink : sinks) sink->write(row);
      result.rows.push_back(std::move(row));
    }
  }
  for (ResultSink* sink : sinks) sink->close();
  return result;
}

SweepResult SweepRunner::run(const Campaign& campaign,
                             const std::vector<ResultSink*>& sinks) const {
  return run(campaign, campaign.default_grid(), sinks);
}

}  // namespace photorack::scenario
