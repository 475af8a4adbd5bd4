#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/campaigns.hpp"
#include "scenario/result_sink.hpp"
#include "scenario/sweep_grid.hpp"

namespace photorack::scenario {

struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().  Results
  /// are independent of this value — only wall-clock changes.
  std::size_t jobs = 0;
  /// 0 (the default) keeps each workload's registry seed, reproducing the
  /// paper's numbers; any other value re-seeds every scenario from
  /// ScenarioSpec::derived_seed() for independent replications (a CPU
  /// latency point from its spec without cpusim.dram.extra_ns).
  std::uint64_t base_seed = 0;
};

/// In-memory sweep output plus the small query helpers the bench wrappers
/// use to aggregate paper-vs-measured checks.
struct SweepResult {
  std::vector<std::string> columns;
  std::vector<ResultRow> rows;  // grid order, stable across --jobs levels
  /// The run's manifest (deterministic JSON: campaign id, seeds, axes,
  /// overrides, full resolved parameter tree) — the first line of the CSV
  /// and JSONL writers' output and the CLI's sidecar file.
  std::string manifest_json;

  using Filter = std::vector<std::pair<std::string, std::string>>;

  [[nodiscard]] std::size_t col(const std::string& name) const;  // throws if unknown
  [[nodiscard]] const std::string& cell(const ResultRow& row,
                                        const std::string& name) const;
  [[nodiscard]] double num(const ResultRow& row, const std::string& name) const;

  /// Rows whose cells equal every (column, value) pair of the filter.
  [[nodiscard]] std::vector<const ResultRow*> where(const Filter& filter) const;
  /// The single row matching the filter; throws unless exactly one matches.
  [[nodiscard]] const ResultRow& find(const Filter& filter) const;

  [[nodiscard]] std::vector<double> values(const std::string& name,
                                           const Filter& filter = {}) const;
  [[nodiscard]] double mean(const std::string& name, const Filter& filter = {}) const;
  [[nodiscard]] double max(const std::string& name, const Filter& filter = {}) const;
};

/// Executes a campaign's specs on sim::parallel_for, one task per set of
/// specs that differ only in Campaign::replay_axes, and returns every row
/// in grid order.  Scenario evaluators seed from their spec, so the result
/// is bit-identical for any jobs count.  A failed scenario's exception is
/// rethrown here after every worker has stopped, and a row whose width does
/// not match the columns throws std::logic_error, both before the caller
/// can write a byte.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opt = {}) : opt_(opt) {}

  SweepResult run(const Campaign& campaign, const SweepGrid& grid) const;
  /// Convenience: run the campaign's default grid.
  SweepResult run(const Campaign& campaign) const;

 private:
  SweepOptions opt_;
};

}  // namespace photorack::scenario
