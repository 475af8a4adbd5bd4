// google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, cache access rate, DRAM model, trace generation,
// full timing-simulation rate, miss-profile record/replay, and
// indirect-routing decision rate.
//
// Links benchmark_main, so the library's own flags apply; for JSON results
// pass --benchmark_out=<file> --benchmark_out_format=json.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <iterator>

#include "collectives/collective.hpp"
#include "collectives/runner.hpp"
#include "core/rack_system.hpp"
#include "cpusim/miss_profile.hpp"
#include "net/flow_sim.hpp"
#include "cpusim/runner.hpp"
#include "net/routing.hpp"
#include "sim/event_queue.hpp"
#include "workloads/cpu_profiles.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace photorack;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    long long sink = 0;
    for (int i = 0; i < 1024; ++i)
      q.schedule_at(i * 10, [&sink] { benchmark::DoNotOptimize(++sink); });
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_CacheHierarchyAccess(benchmark::State& state) {
  cpusim::CacheHierarchy hierarchy;
  sim::Rng rng(1);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    addr = rng() % (64ULL << 20);
    benchmark::DoNotOptimize(hierarchy.access(addr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void BM_DramModel(benchmark::State& state) {
  cpusim::DramModel dram;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    addr += 64;
    benchmark::DoNotOptimize(dram.access_ns(addr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramModel);

void BM_TraceGeneration(benchmark::State& state) {
  workloads::SyntheticTrace trace(workloads::cpu_benchmarks().front().trace);
  std::array<cpusim::Instr, 4096> batch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.next_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch.size()));
}
BENCHMARK(BM_TraceGeneration);

void BM_TimingSimulation(benchmark::State& state) {
  const auto& bench = workloads::cpu_benchmarks().front();
  for (auto _ : state) {
    cpusim::SimConfig cfg;
    cfg.warmup_instructions = 10'000;
    cfg.measured_instructions = 100'000;
    workloads::SyntheticTrace trace(bench.trace);
    benchmark::DoNotOptimize(cpusim::run_simulation(trace, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 110'000);
}
BENCHMARK(BM_TimingSimulation);

// A latency-heavy benchmark shape for the record/replay benches: large
// working set so the LLC actually misses and the profile has real records.
cpusim::SimConfig replay_bench_config(cpusim::CoreKind kind) {
  cpusim::SimConfig cfg;
  cfg.core.kind = kind;
  cfg.warmup_instructions = 10'000;
  cfg.measured_instructions = 100'000;
  return cfg;
}

const workloads::CpuBenchmark& replay_bench_workload() {
  // Pick a high-miss-rate benchmark so replay walks a non-trivial record
  // vector (streamcluster/large thrashes the LLC).
  for (const auto& b : workloads::cpu_benchmarks())
    if (b.full_name() == "PARSEC/streamcluster/large") return b;
  return workloads::cpu_benchmarks().front();
}

void BM_MissProfileRecord(benchmark::State& state) {
  const auto& bench = replay_bench_workload();
  const auto cfg = replay_bench_config(cpusim::CoreKind::kOutOfOrder);
  for (auto _ : state) {
    workloads::SyntheticTrace trace(bench.trace);
    benchmark::DoNotOptimize(cpusim::record_miss_profile(trace, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 110'000);
}
BENCHMARK(BM_MissProfileRecord);

void BM_MissProfileReplay(benchmark::State& state) {
  const auto& bench = replay_bench_workload();
  const auto cfg = replay_bench_config(cpusim::CoreKind::kOutOfOrder);
  workloads::SyntheticTrace trace(bench.trace);
  const cpusim::MissProfile profile = cpusim::record_miss_profile(trace, cfg);
  double extra = 0.0;
  for (auto _ : state) {
    extra = extra >= 85.0 ? 0.0 : extra + 5.0;
    benchmark::DoNotOptimize(cpusim::replay_profile(profile, extra));
  }
  // One replay substitutes for one full simulation of the measured window.
  state.SetItemsProcessed(state.iterations() * 100'000);
  state.counters["misses"] = static_cast<double>(profile.miss_count());
}
BENCHMARK(BM_MissProfileReplay);

// Sweep-level record-vs-replay comparison: a K-point latency grid evaluated
// the pre-replay way (K full simulations) against the profile engine (one
// recording + K replays).  The items/sec ratio of the two is the sweep
// speedup the fig8 campaign sees.
constexpr double kSweepGrid[] = {0, 10, 20, 25, 30, 35, 45, 55, 65, 75, 85, 95};

void BM_LatencySweepFullSim(benchmark::State& state) {
  const auto& bench = replay_bench_workload();
  for (auto _ : state) {
    for (const double extra : kSweepGrid) {
      auto cfg = replay_bench_config(cpusim::CoreKind::kInOrder);
      cfg.dram.extra_ns = extra;
      workloads::SyntheticTrace trace(bench.trace);
      benchmark::DoNotOptimize(cpusim::run_simulation(trace, cfg));
    }
  }
  state.SetItemsProcessed(state.iterations() * std::size(kSweepGrid));
}
BENCHMARK(BM_LatencySweepFullSim);

void BM_LatencySweepRecordReplay(benchmark::State& state) {
  const auto& bench = replay_bench_workload();
  for (auto _ : state) {
    const auto cfg = replay_bench_config(cpusim::CoreKind::kInOrder);
    workloads::SyntheticTrace trace(bench.trace);
    const cpusim::MissProfile profile = cpusim::record_miss_profile(trace, cfg);
    for (const double extra : kSweepGrid)
      benchmark::DoNotOptimize(cpusim::replay_profile(profile, extra));
  }
  state.SetItemsProcessed(state.iterations() * std::size(kSweepGrid));
}
BENCHMARK(BM_LatencySweepRecordReplay);

// One full collective step (all phases, open/advance/close on the live
// fabric) per iteration — the inner loop of every ML training job in the
// co-simulation, isolated so the pattern/scale cost is visible.
void BM_CollectiveStep(benchmark::State& state, collectives::Pattern pattern,
                       int endpoints) {
  std::uint64_t flows = 0;
  for (auto _ : state) {
    net::WavelengthFabric fabric(24, net::slice_awgr_plan({.mcms = 24}));
    net::FlowEngine engine(fabric, 10 * sim::kPsPerUs, 42);
    sim::EventQueue queue;
    collectives::CollectiveSpec spec;
    spec.pattern = pattern;
    spec.endpoints.resize(static_cast<std::size_t>(endpoints));
    for (int i = 0; i < endpoints; ++i) spec.endpoints[static_cast<std::size_t>(i)] = i % 24;
    spec.bytes = 64e6;
    collectives::CollectiveRunner runner(engine, queue, spec);
    collectives::CollectiveResult result;
    runner.start([&](const collectives::CollectiveResult& r) { result = r; });
    queue.run();
    benchmark::DoNotOptimize(result);
    flows = result.flows;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows"] = static_cast<double>(flows);
}
BENCHMARK_CAPTURE(BM_CollectiveStep, ring_8, collectives::Pattern::kRingAllReduce, 8);
BENCHMARK_CAPTURE(BM_CollectiveStep, ring_24, collectives::Pattern::kRingAllReduce, 24);
BENCHMARK_CAPTURE(BM_CollectiveStep, alltoall_8, collectives::Pattern::kAllToAll, 8);
BENCHMARK_CAPTURE(BM_CollectiveStep, alltoall_24, collectives::Pattern::kAllToAll, 24);

void BM_IndirectRouting(benchmark::State& state) {
  core::RackSystem system(rack::FabricKind::kParallelAwgrs);
  auto fabric = system.make_fabric();
  net::PiggybackView view(fabric, sim::kPsPerUs);
  net::IndirectRouter router(fabric, view, 42);
  sim::Rng rng(7);
  const auto mcms = static_cast<std::uint64_t>(fabric.mcms());
  net::RouteResult result;
  for (auto _ : state) {
    const int src = static_cast<int>(rng.below(mcms));
    int dst = static_cast<int>(rng.below(mcms));
    if (dst == src) dst = (dst + 1) % static_cast<int>(mcms);
    router.route(src, dst, 200.0, result);  // forces indirect spill
    benchmark::DoNotOptimize(result);
    router.release(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndirectRouting);

}  // namespace
