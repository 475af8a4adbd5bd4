#include "traffic/arrival.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace photorack::traffic {

const sim::EnumCodec<ArrivalKind>& arrival_kind_codec() {
  static const sim::EnumCodec<ArrivalKind> codec(
      "arrival process", {{"poisson", ArrivalKind::kPoisson},
                          {"mmpp", ArrivalKind::kMmpp},
                          {"diurnal", ArrivalKind::kDiurnal},
                          {"trace", ArrivalKind::kTrace}});
  return codec;
}

namespace {

/// Scaled-gap Poisson: a unit-exponential stream divided by the rate.  This
/// is byte-for-byte the arrival layout RackCosim used before the traffic
/// engine existed — one exponential(1.0) draw per gap, same cast — so the
/// default process reproduces every pre-engine trajectory exactly, and
/// raising the rate compresses the SAME pattern instead of resampling.
class PoissonProcess final : public ArrivalProcess {
 public:
  explicit PoissonProcess(double rate_per_ms) : rate_(rate_per_ms) {}

  sim::TimePs next_gap(sim::TimePs /*now*/, sim::Rng& rng) override {
    const double unit = rng.exponential(1.0);
    return static_cast<sim::TimePs>(unit * static_cast<double>(sim::kPsPerMs) /
                                    rate_);
  }

  [[nodiscard]] ArrivalKind kind() const override { return ArrivalKind::kPoisson; }

 private:
  double rate_;
};

/// 2-state MMPP: exponential dwells in an ON state (rate * burst_rate_mult)
/// and an OFF state whose rate is derived so the time-averaged rate equals
/// the base rate.  Dwell boundaries are absolute times; by memorylessness,
/// redrawing the exponential gap after crossing a boundary at the boundary's
/// state rate is a faithful simulation of the modulated process.
class MmppProcess final : public ArrivalProcess {
 public:
  MmppProcess(double rate_per_ms, double on_mult, double on_fraction,
              sim::TimePs mean_on)
      : rate_on_(rate_per_ms * on_mult),
        rate_off_(rate_per_ms * (1.0 - on_fraction * on_mult) /
                  (1.0 - on_fraction)),
        mean_on_(mean_on),
        mean_off_(static_cast<sim::TimePs>(static_cast<double>(mean_on) *
                                           (1.0 - on_fraction) / on_fraction)),
        on_fraction_(on_fraction) {}

  sim::TimePs next_gap(sim::TimePs now, sim::Rng& rng) override {
    sim::TimePs t = now;
    if (!started_) {
      // Start from the stationary state distribution so finite-horizon runs
      // meet the mean-rate contract in expectation, not just asymptotically.
      on_ = rng.bernoulli(on_fraction_);
      next_switch_ = t + dwell(rng);
      started_ = true;
    }
    while (true) {
      const double rate = on_ ? rate_on_ : rate_off_;
      if (rate > 0.0) {
        const double unit = rng.exponential(1.0);
        const auto gap = static_cast<sim::TimePs>(
            unit * static_cast<double>(sim::kPsPerMs) / rate);
        if (t + gap < next_switch_) return (t + gap) - now;
      }
      // No arrival before the state flips (or this state emits none at
      // all): advance to the boundary and redraw in the other state.
      t = next_switch_;
      on_ = !on_;
      next_switch_ = t + dwell(rng);
    }
  }

  [[nodiscard]] ArrivalKind kind() const override { return ArrivalKind::kMmpp; }

 private:
  sim::TimePs dwell(sim::Rng& rng) {
    const auto mean = static_cast<double>(on_ ? mean_on_ : mean_off_);
    return std::max<sim::TimePs>(1,
                                 static_cast<sim::TimePs>(rng.exponential(mean)));
  }

  double rate_on_;
  double rate_off_;
  sim::TimePs mean_on_;
  sim::TimePs mean_off_;
  double on_fraction_;
  bool started_ = false;
  bool on_ = false;
  sim::TimePs next_switch_ = 0;
};

/// Sinusoidally rate-modulated Poisson via Lewis-Shedler thinning:
/// candidates arrive at the peak rate and are accepted with probability
/// rate(t) / peak, so rate(t) = base * (1 + A sin(2 pi t / period)) exactly.
/// Mean acceptance probability is 1 / (1 + A) >= 1/2, so the rejection loop
/// terminates quickly.
class DiurnalProcess final : public ArrivalProcess {
 public:
  DiurnalProcess(double rate_per_ms, double amplitude, sim::TimePs period)
      : rate_(rate_per_ms), amplitude_(amplitude), period_(period) {}

  sim::TimePs next_gap(sim::TimePs now, sim::Rng& rng) override {
    const double peak = rate_ * (1.0 + amplitude_);
    sim::TimePs t = now;
    while (true) {
      const double unit = rng.exponential(1.0);
      t += static_cast<sim::TimePs>(unit * static_cast<double>(sim::kPsPerMs) /
                                    peak);
      const double phase = 2.0 * std::numbers::pi *
                           std::fmod(static_cast<double>(t),
                                     static_cast<double>(period_)) /
                           static_cast<double>(period_);
      const double rate_t = rate_ * (1.0 + amplitude_ * std::sin(phase));
      if (rng.uniform() * peak < rate_t) return t - now;
    }
  }

  [[nodiscard]] ArrivalKind kind() const override { return ArrivalKind::kDiurnal; }

 private:
  double rate_;
  double amplitude_;
  sim::TimePs period_;
};

/// Replay of explicit arrival timestamps; deterministic and RNG-free.
/// Returns kNoMoreArrivals once the trace is exhausted.
class TraceProcess final : public ArrivalProcess {
 public:
  explicit TraceProcess(std::vector<sim::TimePs> times) : times_(std::move(times)) {
    for (std::size_t i = 0; i + 1 < times_.size(); ++i)
      if (times_[i] > times_[i + 1])
        throw std::invalid_argument(
            "arrival trace: timestamps must be non-decreasing");
    if (!times_.empty() && times_.front() < 0)
      throw std::invalid_argument("arrival trace: timestamps must be >= 0");
  }

  sim::TimePs next_gap(sim::TimePs now, sim::Rng& /*rng*/) override {
    if (next_ >= times_.size()) return kNoMoreArrivals;
    const sim::TimePs at = times_[next_++];
    return at > now ? at - now : 0;
  }

  [[nodiscard]] ArrivalKind kind() const override { return ArrivalKind::kTrace; }

 private:
  std::vector<sim::TimePs> times_;
  std::size_t next_ = 0;
};

}  // namespace

std::vector<sim::TimePs> load_arrival_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("arrival trace: cannot open '" + path + "'");
  std::vector<sim::TimePs> times;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(start, end - start + 1);
    char* parsed_end = nullptr;
    const double ms = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size() || !std::isfinite(ms))
      throw std::runtime_error("arrival trace: bad timestamp '" + token + "' at " +
                               path + ":" + std::to_string(line_no));
    times.push_back(
        static_cast<sim::TimePs>(ms * static_cast<double>(sim::kPsPerMs)));
  }
  return times;
}

std::unique_ptr<ArrivalProcess> make_trace_process(
    std::vector<sim::TimePs> arrival_times) {
  return std::make_unique<TraceProcess>(std::move(arrival_times));
}

std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalConfig& cfg,
                                                     double rate_per_ms) {
  if (cfg.kind != ArrivalKind::kTrace && !(rate_per_ms > 0.0))
    throw std::invalid_argument("arrival process: rate must be positive");
  switch (cfg.kind) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonProcess>(rate_per_ms);
    case ArrivalKind::kMmpp: {
      if (!(cfg.burst_rate_mult >= 1.0))
        throw std::invalid_argument("arrival process: burst_rate_mult must be >= 1");
      if (!(cfg.burst_fraction > 0.0) || !(cfg.burst_fraction < 1.0))
        throw std::invalid_argument(
            "arrival process: burst_fraction must be in (0,1)");
      if (cfg.burst_rate_mult * cfg.burst_fraction > 1.0 + 1e-12)
        throw std::invalid_argument(
            "arrival process: burst_rate_mult * burst_fraction must be <= 1 "
            "(the OFF-state rate would go negative)");
      if (cfg.burst_mean < 1)
        throw std::invalid_argument("arrival process: burst_mean must be positive");
      return std::make_unique<MmppProcess>(rate_per_ms, cfg.burst_rate_mult,
                                           cfg.burst_fraction, cfg.burst_mean);
    }
    case ArrivalKind::kDiurnal: {
      if (!(cfg.diurnal_amplitude >= 0.0) || !(cfg.diurnal_amplitude < 1.0))
        throw std::invalid_argument(
            "arrival process: diurnal_amplitude must be in [0,1)");
      if (cfg.diurnal_period < 1)
        throw std::invalid_argument(
            "arrival process: diurnal_period must be positive");
      return std::make_unique<DiurnalProcess>(rate_per_ms, cfg.diurnal_amplitude,
                                              cfg.diurnal_period);
    }
    case ArrivalKind::kTrace: {
      if (cfg.trace_file.empty())
        throw std::invalid_argument(
            "arrival process: trace replay needs cosim.arrival.trace_file");
      return std::make_unique<TraceProcess>(load_arrival_trace(cfg.trace_file));
    }
  }
  throw std::logic_error("arrival process: unhandled kind");
}

}  // namespace photorack::traffic
