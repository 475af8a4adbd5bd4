#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace photorack::obs {

/// Observability shape knobs, registered as the "obs" registry section so
/// `--set obs.trace.enabled=true` reaches any campaign or CLI run.  The
/// non-negotiable contract: enabling ANY of these leaves every simulation
/// output (campaign CSV/JSONL rows, reports, RNG streams) byte-identical to
/// an uninstrumented run — observation never feeds back into the model.
struct ObsConfig {
  bool trace_enabled = false;
  /// Flight-recorder bound on trace events (0 = keep everything).
  std::uint64_t trace_ring = 0;
  bool metrics_enabled = false;
  /// Period of the metrics time-series sampler.
  sim::TimePs metrics_interval = 5 * sim::kPsPerMs;
  bool profile_enabled = false;
};

/// Non-owning handle bundle the instrumented layers carry.  Null pointers
/// are the null sinks: every instrumentation site is a single pointer test
/// when its facility is disabled, so the default-constructed Obs compiles
/// the whole layer down to near-zero cost.
struct Obs {
  TraceRecorder* trace = nullptr;
  MetricsSeries* metrics = nullptr;
  Profiler* profiler = nullptr;

  [[nodiscard]] bool any() const {
    return trace != nullptr || metrics != nullptr || profiler != nullptr;
  }
};

/// Owning bundle: builds exactly the recorders an ObsConfig enables and
/// hands out the matching (possibly-null) handles.  Keep the bundle alive
/// for the duration of the run it observes.
class ObsBundle {
 public:
  explicit ObsBundle(const ObsConfig& cfg) {
    if (cfg.trace_enabled)
      trace_ = std::make_unique<TraceRecorder>(static_cast<std::size_t>(cfg.trace_ring));
    if (cfg.metrics_enabled)
      metrics_ = std::make_unique<MetricsSeries>(cfg.metrics_interval);
    if (cfg.profile_enabled) profiler_ = std::make_unique<Profiler>();
  }

  [[nodiscard]] Obs handles() { return Obs{trace_.get(), metrics_.get(), profiler_.get()}; }
  [[nodiscard]] TraceRecorder* trace() { return trace_.get(); }
  [[nodiscard]] MetricsSeries* metrics() { return metrics_.get(); }
  [[nodiscard]] Profiler* profiler() { return profiler_.get(); }

 private:
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsSeries> metrics_;
  std::unique_ptr<Profiler> profiler_;
};

}  // namespace photorack::obs
