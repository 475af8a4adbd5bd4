#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace photorack::obs {

/// Wall-clock self-profiler for the simulator's hot paths.
///
/// Layers register named scopes once ("net.flow_open", "disagg.allocate",
/// ...) and wrap each hot-path hit in an obs::ScopedTimer.  The profiler
/// aggregates count and total nanoseconds per scope; entries() rolls that
/// up into a per-run profile table (photorack_cosim --profile, perfbench).
///
/// This is the ONE place the observability layer reads a wall clock; it
/// never feeds back into simulation state, so profiling cannot perturb
/// results — only measure their cost.  Disabled profiling is a null
/// Profiler pointer at the ScopedTimer site: one pointer test per hit.
class Profiler {
 public:
  using ScopeId = std::size_t;

  /// Register (or look up) a scope by name; stable id for ScopedTimer.
  ScopeId scope(const std::string& name);

  void record(ScopeId id, std::uint64_t ns);

  struct Entry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    [[nodiscard]] double ns_per_op() const {
      return count ? static_cast<double>(total_ns) / static_cast<double>(count) : 0.0;
    }
    [[nodiscard]] double items_per_sec() const {
      return total_ns ? static_cast<double>(count) * 1e9 / static_cast<double>(total_ns)
                      : 0.0;
    }
  };

  /// Scopes in registration order, hit or not.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// RAII wall-clock timer: charges the elapsed time to `scope` of `profiler`
/// on destruction.  A null profiler makes construction and destruction a
/// pointer test — the disabled path stays out of the way of the code it
/// would measure.
class ScopedTimer {
 public:
  ScopedTimer(Profiler* profiler, Profiler::ScopeId scope)
      : profiler_(profiler), scope_(scope) {
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (profiler_)
      profiler_->record(scope_, static_cast<std::uint64_t>(
                                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start_)
                                        .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler* profiler_;
  Profiler::ScopeId scope_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace photorack::obs
