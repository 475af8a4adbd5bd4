// The observability layer's contracts:
//
//  - TraceRecorder emits valid Chrome-trace-event JSON keyed on sim time,
//    with non-negative span durations, monotone instant timestamps, and a
//    flight-recorder ring that evicts oldest-first.
//  - MetricsRegistry enforces its registration/update discipline and
//    snapshots rows in a stable column order.
//  - Profiler rolls scopes up into the BENCH_results.json schema.
//  - THE contract: attaching any of it to a co-simulation changes nothing —
//    every report field and every campaign row stays byte-identical, for
//    any --jobs level.
//  - What a co-simulation records in its trace and metrics is pinned byte
//    for byte on the fault, training-job and spill paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster_cosim.hpp"
#include "cosim/rack_cosim.hpp"
#include "obs/obs.hpp"
#include "report_testing.hpp"
#include "scenario/campaigns.hpp"
#include "scenario/sweep_runner.hpp"
#include "workloads/usage.hpp"

namespace photorack {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (same shape as the manifest
// suite's): enough to guarantee strict consumers parse the trace.  CI
// additionally loads emitted traces through python3 json.load.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    return number_or_literal();
  }
  bool object() {
    ++i_;
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }
  bool array() {
    ++i_;
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
        continue;
      }
      if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool number_or_literal() {
    const std::size_t start = i_;
    while (i_ < s_.size() && std::string("-+.eE0123456789truefalsnl").find(s_[i_]) !=
                                 std::string::npos)
      ++i_;
    return i_ > start;
  }
  bool peek(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t'))
      ++i_;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string trace_json(const obs::TraceRecorder& trace) {
  std::ostringstream os;
  trace.write_json(os);
  return os.str();
}

/// Values of `"key":<number>` on every event line that also contains
/// `marker` (write_json emits one event per line), in file order.
std::vector<double> values_on_lines(const std::string& json, const std::string& marker,
                                    const std::string& key) {
  std::vector<double> out;
  std::istringstream lines(json);
  std::string line;
  const std::string needle = "\"" + key + "\":";
  while (std::getline(lines, line)) {
    if (line.find(marker) == std::string::npos) continue;
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) continue;
    out.push_back(std::stod(line.substr(at + needle.size())));
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorder, EmitsValidTraceEventJson) {
  obs::TraceRecorder trace;
  trace.instant(obs::Track::kJobs, "arrival", 1 * sim::kPsPerUs);
  trace.counter(obs::Track::kPower, "rack_power_w", 2 * sim::kPsPerUs, 123.5);
  trace.complete(obs::Track::kFlows, "flow", 1 * sim::kPsPerUs, 5 * sim::kPsPerUs,
                 {{"gbps", 12.5}, {"src", 3.0}});
  const std::string json = trace_json(trace);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Track metadata names every lane for Perfetto.
  for (const char* lane : {"\"sim\"", "\"jobs\"", "\"flows\"", "\"power\""})
    EXPECT_NE(json.find(lane), std::string::npos) << lane;
}

TEST(TraceRecorder, SpanTimestampsAreSimTimeInMicroseconds) {
  obs::TraceRecorder trace;
  // 3 us to 7 us: ts 3.0, dur 4.0 in the trace's microsecond unit.
  trace.complete(obs::Track::kJobs, "job", 3 * sim::kPsPerUs, 7 * sim::kPsPerUs);
  const std::string json = trace_json(trace);
  const auto ts = values_on_lines(json, "\"ph\":\"X\"", "ts");
  const auto dur = values_on_lines(json, "\"ph\":\"X\"", "dur");
  ASSERT_EQ(ts.size(), 1u);
  ASSERT_EQ(dur.size(), 1u);
  EXPECT_DOUBLE_EQ(ts[0], 3.0);
  EXPECT_DOUBLE_EQ(dur[0], 4.0);
}

TEST(TraceRecorder, NestedSpansStayWithinParentAndDurationsNonNegative) {
  obs::TraceRecorder trace;
  const sim::TimePs outer_b = 0, outer_e = 100 * sim::kPsPerUs;
  const sim::TimePs inner_b = 10 * sim::kPsPerUs, inner_e = 50 * sim::kPsPerUs;
  // Spans are recorded at close time, so the inner span lands first.
  trace.complete(obs::Track::kJobs, "inner", inner_b, inner_e);
  trace.complete(obs::Track::kJobs, "outer", outer_b, outer_e);
  const std::string json = trace_json(trace);
  const auto ts = values_on_lines(json, "\"ph\":\"X\"", "ts");
  const auto dur = values_on_lines(json, "\"ph\":\"X\"", "dur");
  ASSERT_EQ(ts.size(), 2u);
  ASSERT_EQ(dur.size(), 2u);
  for (const double d : dur) EXPECT_GE(d, 0.0);
  // Nesting: inner's [ts, ts+dur] within outer's.
  EXPECT_GE(ts[0], ts[1]);
  EXPECT_LE(ts[0] + dur[0], ts[1] + dur[1]);
}

TEST(TraceRecorder, BackwardsSpanThrows) {
  obs::TraceRecorder trace;
  EXPECT_THROW(trace.complete(obs::Track::kJobs, "job", 10, 5), std::invalid_argument);
}

TEST(TraceRecorder, RingEvictsOldestInRecordOrder) {
  obs::TraceRecorder trace(3);
  for (int i = 1; i <= 5; ++i)
    trace.instant(obs::Track::kJobs, "e" + std::to_string(i), i * sim::kPsPerUs);
  EXPECT_EQ(trace.events(), 3u);
  EXPECT_EQ(trace.recorded(), 5u);
  EXPECT_EQ(trace.dropped(), 2u);
  const std::string json = trace_json(trace);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(json.find("\"e1\""), std::string::npos);
  EXPECT_EQ(json.find("\"e2\""), std::string::npos);
  for (const char* kept : {"\"e3\"", "\"e4\"", "\"e5\""})
    EXPECT_NE(json.find(kept), std::string::npos) << kept;
}

TEST(TraceRecorder, UnwritablePathThrowsNamingThePath) {
  obs::TraceRecorder trace;
  trace.instant(obs::Track::kSim, "x", 0);
  try {
    trace.write_json_file("/dev/null/nope/trace.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/null/nope/trace.json"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ColumnsFollowRegistrationOrder) {
  obs::MetricsRegistry m;
  m.counter("offered");
  m.gauge("backlog");
  m.histogram("wait_ms");
  const std::vector<std::string> want = {"time_ms", "offered", "backlog",
                                         "wait_ms_p50", "wait_ms_p99"};
  EXPECT_EQ(m.columns(), want);
}

TEST(MetricsRegistry, SampleSnapshotsEveryMetric) {
  obs::MetricsRegistry m;
  const auto c = m.counter("offered");
  const auto g = m.gauge("backlog");
  const auto h = m.histogram("wait_ms");
  m.inc(c);
  m.inc(c, 2.0);
  m.set(g, 7.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) m.observe(h, v);
  m.sample(5.0);
  m.set(g, 9.0);
  m.sample(10.0);

  ASSERT_EQ(m.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(m.rows()[0].t_ms, 5.0);
  EXPECT_DOUBLE_EQ(m.rows()[0].values[0], 3.0);  // counter level
  EXPECT_DOUBLE_EQ(m.rows()[0].values[1], 7.0);  // gauge
  EXPECT_GT(m.rows()[0].values[2], 0.0);         // wait_ms_p50
  EXPECT_DOUBLE_EQ(m.rows()[1].values[1], 9.0);

  const auto rows = m.string_rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), m.columns().size());
}

TEST(MetricsRegistry, EnforcesItsDiscipline) {
  obs::MetricsRegistry m;
  const auto c = m.counter("offered");
  const auto g = m.gauge("backlog");
  EXPECT_THROW(m.counter("offered"), std::invalid_argument);  // duplicate name
  EXPECT_THROW(m.gauge(""), std::invalid_argument);
  EXPECT_THROW(m.inc(c, -1.0), std::invalid_argument);  // counters are monotone
  EXPECT_THROW(m.set(c, 1.0), std::logic_error);        // kind mismatch
  EXPECT_THROW(m.observe(g, 1.0), std::logic_error);
  m.sample(1.0);
  EXPECT_THROW(m.sample(0.5), std::invalid_argument);  // time went backwards
  EXPECT_THROW(m.gauge("late"), std::logic_error);     // register after sampling
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

TEST(Profiler, RollsScopesUpIntoBenchSchema) {
  obs::Profiler prof;
  const auto a = prof.scope("layer.fast");
  const auto b = prof.scope("layer.slow");
  EXPECT_EQ(prof.scope("layer.fast"), a);  // scope() dedupes by name
  prof.scope("layer.never_hit");
  prof.record(a, 100);
  prof.record(a, 300);
  prof.record(b, 1000);

  ASSERT_EQ(prof.entries().size(), 3u);
  EXPECT_EQ(prof.entries()[0].count, 2u);
  EXPECT_DOUBLE_EQ(prof.entries()[0].ns_per_op(), 200.0);

  std::ostringstream os;
  prof.write_bench_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(json.find("\"layer.fast\""), std::string::npos);
  EXPECT_NE(json.find("\"ns_per_op\""), std::string::npos);
  // Zero-hit scopes have no ns/op to compare — skipped.
  EXPECT_EQ(json.find("never_hit"), std::string::npos);
}

TEST(Profiler, UnwritablePathThrowsNamingThePath) {
  obs::Profiler prof;
  prof.record(prof.scope("s"), 1);
  EXPECT_THROW(prof.write_bench_json_file("/dev/null/nope/bench.json"),
               std::runtime_error);
}

TEST(Profiler, NullProfilerScopedTimerIsANoop) {
  obs::ScopedTimer timer(nullptr, 0);  // must not touch the clock or crash
  SUCCEED();
}

// ---------------------------------------------------------------------------
// The non-negotiable contract: observation never perturbs the simulation.
// ---------------------------------------------------------------------------

cosim::CosimConfig small_cosim() {
  cosim::CosimConfig cfg;
  cfg.arrivals_per_ms = 6.0;
  cfg.sim_time = 60 * sim::kPsPerMs;
  cfg.admission = cosim::AdmissionPolicy::kQueue;
  return cfg;
}

TEST(ObsContract, FullBundleLeavesTheCosimReportBitIdentical) {
  const auto rack = rack::RackConfig{};
  const auto usage = workloads::UsageModel::cori();
  const auto base = cosim::run_rack_cosim(
      rack, disagg::AllocationPolicy::kDisaggregated, usage, small_cosim());

  obs::ObsConfig cfg;
  cfg.trace_enabled = true;
  cfg.metrics_enabled = true;
  cfg.profile_enabled = true;
  obs::ObsBundle bundle(cfg);
  const auto observed =
      cosim::run_rack_cosim(rack, disagg::AllocationPolicy::kDisaggregated, usage,
                            small_cosim(), bundle.handles());

  // Everything but the event counters (the sampler rides the event queue).
  testutil::expect_same_report(base, observed,
                               {"jobs", "tails", "flows", "speed", "energy", "fault", "ml"});
  // The instrumentation did fire: a trace, metrics rows and profile hits all
  // exist — identical results do not mean the obs run silently recorded
  // nothing.
  EXPECT_GT(bundle.trace()->recorded(), 0u);
  EXPECT_GT(bundle.metrics()->rows().size(), 1u);
  EXPECT_GT(bundle.profiler()->entries().size(), 0u);

  // The metrics sampler rides the sim event queue, so the EVENT counters may
  // differ — but only them, and never the trajectory (everything above).
  EXPECT_GE(observed.jobs.events.dispatched, base.jobs.events.dispatched);
}

TEST(ObsContract, TraceOnlyBundleAlsoKeepsEventCountsIdentical) {
  const auto rack = rack::RackConfig{};
  const auto usage = workloads::UsageModel::cori();
  const auto base = cosim::run_rack_cosim(
      rack, disagg::AllocationPolicy::kDisaggregated, usage, small_cosim());

  obs::ObsConfig cfg;
  cfg.trace_enabled = true;  // no sampler: the queue sees the same events
  obs::ObsBundle bundle(cfg);
  const auto observed =
      cosim::run_rack_cosim(rack, disagg::AllocationPolicy::kDisaggregated, usage,
                            small_cosim(), bundle.handles());
  testutil::expect_same_report(base, observed);
}

TEST(ObsContract, CosimTraceIsValidJsonWithMonotoneInstantsAndNonNegativeSpans) {
  obs::ObsConfig cfg;
  cfg.trace_enabled = true;
  obs::ObsBundle bundle(cfg);
  (void)cosim::run_rack_cosim(rack::RackConfig{},
                              disagg::AllocationPolicy::kDisaggregated,
                              workloads::UsageModel::cori(), small_cosim(),
                              bundle.handles());
  const std::string json = trace_json(*bundle.trace());
  EXPECT_TRUE(JsonChecker(json).valid());

  // Instants are recorded in dispatch order, so their timestamps must be
  // monotone; spans close later but may begin earlier, so only their
  // durations are constrained.
  const auto instants = values_on_lines(json, "\"ph\":\"i\"", "ts");
  ASSERT_GT(instants.size(), 10u);
  for (std::size_t i = 1; i < instants.size(); ++i)
    EXPECT_GE(instants[i], instants[i - 1]) << "instant " << i;
  const auto durs = values_on_lines(json, "\"ph\":\"X\"", "dur");
  ASSERT_GT(durs.size(), 10u);
  for (const double d : durs) EXPECT_GE(d, 0.0);
  // Counter samples (the power track) are dispatch-ordered too.
  const auto counters = values_on_lines(json, "\"ph\":\"C\"", "ts");
  ASSERT_GT(counters.size(), 10u);
  for (std::size_t i = 1; i < counters.size(); ++i)
    EXPECT_GE(counters[i], counters[i - 1]) << "counter " << i;
}

TEST(ObsContract, MetricsTimeSeriesIsMonotoneAndFullWidth) {
  obs::ObsConfig cfg;
  cfg.metrics_enabled = true;
  cfg.metrics_interval = 2 * sim::kPsPerMs;
  obs::ObsBundle bundle(cfg);
  (void)cosim::run_rack_cosim(rack::RackConfig{},
                              disagg::AllocationPolicy::kDisaggregated,
                              workloads::UsageModel::cori(), small_cosim(),
                              bundle.handles());
  const auto& rows = bundle.metrics()->rows();
  ASSERT_GT(rows.size(), 5u);
  const std::size_t width = bundle.metrics()->columns().size();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].values.size() + 1, width);  // +1 = time_ms
    if (i) EXPECT_GT(rows[i].t_ms, rows[i - 1].t_ms);
  }
}

// ---------------------------------------------------------------------------
// Trace and metrics content, pinned byte for byte
// ---------------------------------------------------------------------------

/// FNV-1a over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The metrics table as CSV text: the columns, then one line per row.
std::string metrics_csv(const obs::MetricsRegistry& metrics) {
  std::string out;
  const auto line = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out += ',';
      out += cells[i];
    }
    out += '\n';
  };
  line(metrics.columns());
  for (const auto& cells : metrics.string_rows()) line(cells);
  return out;
}

// The report pins (the goldens, FaultCosim's digests) cannot see a trace
// instant emitted in another order or with another value, nor a metrics
// gauge written by another path; these digests can.  Each case runs 40 ms
// with trace and metrics on and reaches the paths it pins: fault victims
// revoked, requeued and degraded, training steps, refused arrivals, and
// spilled deliveries on a cluster's rack 0.  A deliberate change re-pins
// the constants.
TEST(ObsContract, TraceAndMetricsBytesKeepTheirDigests) {
  using disagg::AllocationPolicy;
  using fault::ResiliencePolicy;
  const auto config = [](cosim::AdmissionPolicy admission, ResiliencePolicy resilience,
                         double fabric_mtbf_ms, double crash_mtbf_ms, double ml_mix) {
    cosim::CosimConfig cfg;
    cfg.arrivals_per_ms = 8.0;
    cfg.sim_time = 40 * sim::kPsPerMs;
    cfg.admission = admission;
    cfg.fault.enabled = true;
    cfg.fault.policy = resilience;
    cfg.fault.link_mtbf_ms = fabric_mtbf_ms;
    cfg.fault.mcm_mtbf_ms = crash_mtbf_ms;
    cfg.fault.node_mtbf_ms = crash_mtbf_ms;
    cfg.fault.laser_mtbf_ms = crash_mtbf_ms;
    cfg.ml.enabled = ml_mix > 0.0;
    cfg.ml.mix_fraction = ml_mix;
    return cfg;
  };
  const auto queue = cosim::AdmissionPolicy::kQueue;
  const auto drop = cosim::AdmissionPolicy::kDrop;
  const struct {
    const char* name;
    AllocationPolicy policy;
    cosim::CosimConfig cfg;
    int racks;  // 1 = a standalone rack; more = a least-loaded spill cluster
    std::vector<const char*> reaches;  // trace events the case must emit
    std::uint64_t trace, metrics;
  } cases[] = {
      {"disagg/queue/requeue/ml", AllocationPolicy::kDisaggregated,
       config(queue, ResiliencePolicy::kRequeue, 20.0, 20.0, 0.3), 1,
       {"revoke", "ml_placed", "ml_step", "queue_drop"},
       0x750379bff8aca896ULL, 0xc3458d0864295f0dULL},
      {"static/queue/degrade", AllocationPolicy::kStaticNodes,
       config(queue, ResiliencePolicy::kDegrade, 20.0, 20.0, 0.0), 1,
       {"revoke", "placed"},
       0x9e746e729c54cfadULL, 0xe1f3c0d8007fbba1ULL},
      {"disagg/drop/degrade/ml", AllocationPolicy::kDisaggregated,
       config(drop, ResiliencePolicy::kDegrade, 20.0, 0.0, 0.5), 1,
       {"degrade", "ml_step", "reject"},
       0x4187e326ac386abdULL, 0x7e0f5117012b8e6dULL},
      {"cluster2/least/degrade", AllocationPolicy::kDisaggregated,
       config(queue, ResiliencePolicy::kDegrade, 20.0, 0.0, 0.0), 2,
       {"degrade", "remote_arrival", "spill"},
       0x99ede947d7233bceULL, 0x36bd414a1f60b914ULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    obs::ObsConfig obs_cfg;
    obs_cfg.trace_enabled = true;
    obs_cfg.metrics_enabled = true;
    obs::ObsBundle bundle(obs_cfg);
    if (c.racks == 1) {
      (void)cosim::run_rack_cosim(rack::RackConfig{}, c.policy, workloads::UsageModel::cori(),
                                  c.cfg, bundle.handles());
    } else {
      cluster::ClusterConfig cluster;
      cluster.racks = c.racks;
      cluster.spill = cluster::SpillPolicy::kLeast;
      cluster.interconnect_gbps = phot::Gbps{20.0};
      (void)cluster::run_cluster_cosim(rack::RackConfig{}, c.policy,
                                       workloads::UsageModel::cori(), cluster, c.cfg,
                                       bundle.handles());
    }
    const std::string json = trace_json(*bundle.trace());
    for (const char* event : c.reaches)
      EXPECT_NE(json.find("\"name\":\"" + std::string(event) + "\""), std::string::npos)
          << event;
    const std::uint64_t trace = fnv1a(json);
    const std::uint64_t metrics = fnv1a(metrics_csv(*bundle.metrics()));
    EXPECT_EQ(trace, c.trace) << std::hex << "trace 0x" << trace;
    EXPECT_EQ(metrics, c.metrics) << std::hex << "metrics 0x" << metrics;
  }
}

TEST(ObsContract, CampaignRowsAreByteIdenticalWithObsOnAcrossJobsLevels) {
  const auto& campaign = scenario::campaign_by_name("cosim_acceptance");
  scenario::SweepGrid base_grid = campaign.default_grid();
  base_grid.override_axis("cosim.arrivals_per_ms", {"6"});
  base_grid.override_axis("cosim.horizon_ms", {"60"});

  scenario::SweepGrid obs_grid = base_grid;
  obs_grid.override_axis("obs.trace.enabled", {"true"});
  obs_grid.override_axis("obs.metrics.enabled", {"true"});
  obs_grid.override_axis("obs.profile.enabled", {"true"});

  const auto base = scenario::SweepRunner({.jobs = 2}).run(campaign, base_grid);
  const auto traced = scenario::SweepRunner({.jobs = 2}).run(campaign, obs_grid);
  const auto traced_serial =
      scenario::SweepRunner({.jobs = 1}).run(campaign, obs_grid);

  ASSERT_EQ(base.rows.size(), traced.rows.size());
  ASSERT_EQ(base.rows.size(), traced_serial.rows.size());
  for (std::size_t i = 0; i < base.rows.size(); ++i) {
    EXPECT_EQ(base.rows[i].cells, traced.rows[i].cells) << "row " << i;
    EXPECT_EQ(traced.rows[i].cells, traced_serial.rows[i].cells) << "row " << i;
  }
}

}  // namespace
}  // namespace photorack
