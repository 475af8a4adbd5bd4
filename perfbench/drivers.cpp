#include "drivers.hpp"

#include <algorithm>
#include <chrono>
#include <deque>

#include "collectives/runner.hpp"
#include "net/fabric.hpp"
#include "rack/rack_builder.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using namespace photorack;
using Clock = std::chrono::steady_clock;

constexpr int kQueuePasses = 5;
constexpr int kQueueIters = 200'000;
constexpr int kCollectiveSteps = 31;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// The co-sim fabric slice: `lambdas_per_pair` parallel AWGRs of radix
/// `mcms`, every port populated, so each pair owns `lambdas_per_pair` direct
/// wavelengths — the geometry RackCosim builds from the "net" section.
rack::AwgrFabricPlan slice_plan(const net::FabricSliceConfig& f) {
  rack::AwgrFabricPlan plan;
  plan.parallel_awgrs = f.lambdas_per_pair;
  plan.awgr_radix = f.mcms;
  plan.port_wavelength_cap = f.mcms;
  plan.lambdas_per_port.assign(static_cast<std::size_t>(f.lambdas_per_pair), f.mcms);
  plan.full_coverage_awgrs = f.lambdas_per_pair;
  plan.min_direct_lambdas_per_pair = f.lambdas_per_pair;
  plan.direct_pair_bandwidth = f.gbps_per_wavelength * f.lambdas_per_pair;
  return plan;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double event_queue_ns(std::uint64_t depth, double cancel_share, std::uint64_t seed) {
  depth = std::max<std::uint64_t>(depth, 1);
  // Every iteration schedules one live event and steps one; alongside, a
  // fractional accumulator schedules `extra` doomed events per iteration,
  // each cancelled `lag` doomed events later, so cancelled / scheduled is
  // exactly cancel_share.  Live delays are uniform over 2 * depth time
  // units, so time advances about one unit per step; doomed events land far
  // enough out that each is cancelled before it could fire.
  const double extra =
      cancel_share > 0.0 && cancel_share < 1.0 ? cancel_share / (1.0 - cancel_share) : 0.0;
  const std::size_t lag = std::max<std::uint64_t>(1, depth / 4);
  const auto span = 2 * depth;
  const auto doomed_at = static_cast<sim::TimePs>(
      span + 4 * static_cast<double>(lag) / std::max(extra, 1e-3));
  sim::Rng rng(seed);
  std::vector<double> per_event;
  for (int pass = 0; pass < kQueuePasses; ++pass) {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    const auto handler = [&fired] { ++fired; };
    for (std::uint64_t i = 0; i < depth; ++i)
      q.schedule_after(1 + static_cast<sim::TimePs>(rng.below(span)), handler);
    std::deque<std::uint64_t> doomed;
    double owed = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kQueueIters; ++i) {
      q.schedule_after(1 + static_cast<sim::TimePs>(rng.below(span)), handler);
      for (owed += extra; owed >= 1.0; owed -= 1.0) {
        doomed.push_back(
            q.schedule_after(doomed_at + static_cast<sim::TimePs>(rng.below(span)), handler));
        if (doomed.size() > lag) {
          q.cancel(doomed.front());
          doomed.pop_front();
        }
      }
      q.step();
    }
    const double ns = elapsed_ns(t0);
    per_event.push_back(ns / static_cast<double>(q.stats().scheduled - depth));
  }
  return quantile(per_event, 0.5);
}

CollectiveStep collective_step(const cosim::CosimConfig& cfg) {
  const int mcms = cfg.fabric.mcms;
  collectives::CollectiveSpec spec;
  spec.pattern = cfg.ml.pattern;
  for (int i = 0; i < cfg.ml.accelerators; ++i) spec.endpoints.push_back(i % mcms);
  spec.bytes = cfg.ml.gradient_mb * 1e6;
  spec.demand_gbps = cfg.ml.demand_gbps;
  spec.min_rate_fraction = cfg.min_speed_fraction;

  CollectiveStep out;
  std::vector<double> ns;
  for (int s = 0; s < kCollectiveSteps; ++s) {
    net::WavelengthFabric fabric(mcms, slice_plan(cfg.fabric));
    net::FlowEngine engine(fabric, cfg.fabric.piggyback_interval,
                           sim::Rng(cfg.seed).child(1)());
    sim::EventQueue queue;
    collectives::CollectiveResult result;
    // The co-sim builds one runner per step, so construction (which
    // compiles the phase program) is part of the step.
    const auto t0 = Clock::now();
    collectives::CollectiveRunner runner(engine, queue, spec);
    runner.start([&result](const collectives::CollectiveResult& r) { result = r; });
    queue.run();
    ns.push_back(elapsed_ns(t0));
    out.phases = result.phases;
    out.flows = result.flows;
  }
  out.ns = quantile(ns, 0.5);
  return out;
}

}  // namespace perfbench
