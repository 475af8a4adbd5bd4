#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/enum_codec.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace photorack::traffic {

/// Open-loop arrival processes for the production traffic engine.  Every
/// generator is driven off the caller's RNG stream (the cosim arrival child
/// stream), so same-seed runs stay bit-reproducible, and every stochastic
/// process honors one contract: its LONG-RUN mean rate is the configured
/// rate, so load sweeps compare like against like across process shapes.
enum class ArrivalKind {
  kPoisson,  ///< memoryless scaled-gap stream (the pre-traffic-engine default)
  kMmpp,     ///< 2-state Markov-modulated Poisson (bursty on/off)
  kDiurnal,  ///< sinusoidally rate-modulated Poisson (thinning)
  kTrace,    ///< replay of explicit arrival timestamps
};

/// Canonical CLI/axis/registry spelling of ArrivalKind.
const sim::EnumCodec<ArrivalKind>& arrival_kind_codec();

/// Shape knobs for the non-Poisson processes (the base rate arrives
/// separately — cosim keeps it on its own `arrivals_per_ms` knob).
struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;

  // --- MMPP (bursty on/off) ---
  /// Rate multiplier while the ON (burst) state is active; > 1.
  double burst_rate_mult = 8.0;
  /// Long-run fraction of time spent in the ON state, in (0, 1).  The OFF
  /// rate is derived so the time-averaged rate equals the base rate, which
  /// requires burst_rate_mult * burst_fraction <= 1.
  double burst_fraction = 0.1;
  /// Mean dwell time of one ON burst (OFF dwell follows from the fraction).
  sim::TimePs burst_mean = 10 * sim::kPsPerMs;

  // --- diurnal (rate-modulated) ---
  /// Relative modulation amplitude in [0, 1): rate(t) = base * (1 + A sin).
  double diurnal_amplitude = 0.75;
  /// Modulation period (a compressed "day" at simulation scale).
  sim::TimePs diurnal_period = 200 * sim::kPsPerMs;

  // --- trace replay ---
  /// Path to a trace file: one arrival timestamp in ms per line (monotone
  /// non-decreasing; '#' comments and blank lines ignored).  Required when
  /// kind == kTrace unless explicit timestamps are passed to the factory.
  std::string trace_file;
};

/// Sentinel gap meaning "this process will never fire again" (an exhausted
/// trace).  Far beyond any horizon but small enough that now + gap cannot
/// overflow TimePs.
inline constexpr sim::TimePs kNoMoreArrivals =
    std::numeric_limits<sim::TimePs>::max() / 4;

/// One open-loop arrival stream.  Stateful (MMPP phase, trace cursor) but
/// RNG-free: every random draw comes from the rng the caller passes, so the
/// caller owns the stream discipline.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Gap from `now` to the next arrival (>= 0; kNoMoreArrivals when the
  /// process is exhausted).  `now` must be non-decreasing across calls.
  [[nodiscard]] virtual sim::TimePs next_gap(sim::TimePs now, sim::Rng& rng) = 0;

  [[nodiscard]] virtual ArrivalKind kind() const = 0;
};

/// Build a process from config + base rate (arrivals per ms).  Validates
/// shape parameters (throws std::invalid_argument).  For kTrace, loads
/// cfg.trace_file (throws std::runtime_error when unreadable).
[[nodiscard]] std::unique_ptr<ArrivalProcess> make_arrival_process(
    const ArrivalConfig& cfg, double rate_per_ms);

/// Trace-replay process over explicit timestamps (for tests and in-memory
/// traces); timestamps must be non-decreasing.
[[nodiscard]] std::unique_ptr<ArrivalProcess> make_trace_process(
    std::vector<sim::TimePs> arrival_times);

/// Parse a trace file (one arrival timestamp in ms per line) into absolute
/// picosecond timestamps.  Shared by make_arrival_process and tooling.
[[nodiscard]] std::vector<sim::TimePs> load_arrival_trace(const std::string& path);

}  // namespace photorack::traffic
