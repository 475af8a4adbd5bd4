#include "cosim/report_fields.hpp"

#include <cstdint>
#include <stdexcept>

namespace photorack::cosim {
namespace {

using R = const CosimReport&;

double n(std::uint64_t v) { return static_cast<double>(v); }
double kilo(double v) { return v / 1e3; }

const std::vector<ReportField> kFields = {
    // jobs: the offered stream and what the allocator made of it
    {"offered", "count", "jobs", [](R r) { return n(r.jobs.offered); }},
    {"accepted", "count", "jobs", [](R r) { return n(r.jobs.accepted); }},
    {"acceptance", "frac", "jobs", [](R r) { return r.jobs.acceptance(); }},
    {"mean_cpu_util", "frac", "jobs", [](R r) { return r.jobs.mean_cpu_utilization; }},
    {"mean_gpu_util", "frac", "jobs", [](R r) { return r.jobs.mean_gpu_utilization; }},
    {"mean_mem_util", "frac", "jobs", [](R r) { return r.jobs.mean_memory_utilization; }},
    {"marooned_cpu", "frac", "jobs", [](R r) { return r.jobs.mean_marooned_cpu; }},
    {"marooned_mem", "frac", "jobs", [](R r) { return r.jobs.mean_marooned_memory; }},
    // tails: sketch quantiles, their sample counts, and the censored jobs
    {"wait_p50_ms", "ms", "tails", [](R r) { return r.jobs.wait_ms.p50; }},
    {"wait_p99_ms", "ms", "tails", [](R r) { return r.jobs.wait_ms.p99; }},
    {"wait_p999_ms", "ms", "tails", [](R r) { return r.jobs.wait_ms.p999; }},
    {"wait_count", "count", "tails", [](R r) { return n(r.jobs.wait_ms.count); }},
    {"slowdown_p50", "x", "tails", [](R r) { return r.jobs.slowdown.p50; }},
    {"slowdown_p99", "x", "tails", [](R r) { return r.jobs.slowdown.p99; }},
    {"slowdown_p999", "x", "tails", [](R r) { return r.jobs.slowdown.p999; }},
    {"slowdown_count", "count", "tails", [](R r) { return n(r.jobs.slowdown.count); }},
    {"fct_p50_ms", "ms", "tails", [](R r) { return r.jobs.fct_ms.p50; }},
    {"fct_p99_ms", "ms", "tails", [](R r) { return r.jobs.fct_ms.p99; }},
    {"fct_p999_ms", "ms", "tails", [](R r) { return r.jobs.fct_ms.p999; }},
    {"fct_count", "count", "tails", [](R r) { return n(r.jobs.fct_ms.count); }},
    {"censored_waiting", "count", "tails", [](R r) { return n(r.jobs.censored_waiting); }},
    {"censored_running", "count", "tails", [](R r) { return n(r.jobs.censored_running); }},
    // flows: routing outcome over every flow opened
    {"flows", "count", "flows", [](R r) { return n(r.flows.flows); }},
    {"fully_satisfied", "count", "flows", [](R r) { return n(r.flows.fully_satisfied); }},
    {"offered_gbps", "Gb/s", "flows", [](R r) { return r.flows.offered_gbps_mean; }},
    {"satisfied_frac", "frac", "flows", [](R r) { return r.flows.satisfied_fraction; }},
    {"direct_frac", "frac", "flows", [](R r) { return r.flows.direct_fraction; }},
    {"indirect_frac", "frac", "flows", [](R r) { return r.flows.indirect_fraction; }},
    {"blocking", "frac", "flows", [](R r) { return r.flows.blocking_probability(); }},
    {"stale_mispicks", "count", "flows", [](R r) { return n(r.flows.stale_mispicks); }},
    {"second_hops", "count", "flows", [](R r) { return n(r.flows.second_hops); }},
    {"mean_intermediates", "hops", "flows", [](R r) { return r.flows.mean_intermediates; }},
    {"peak_fabric_util", "frac", "flows", [](R r) { return r.flows.peak_utilization; }},
    // speed: the contention feedback on job durations
    {"mean_speed", "frac", "speed", [](R r) { return r.mean_speed_fraction; }},
    {"mean_stretch", "x", "speed", [](R r) { return r.mean_stretch; }},
    {"max_stretch", "x", "speed", [](R r) { return r.max_stretch; }},
    // energy: the integrated power trace, up to the report time
    {"energy_kj", "kJ", "energy", [](R r) { return kilo(r.energy_joules); }},
    {"mean_kw", "kW", "energy", [](R r) { return kilo(r.mean_power_w); }},
    {"peak_kw", "kW", "energy", [](R r) { return kilo(r.peak_power_w); }},
    {"photonic_kw", "kW", "energy", [](R r) { return kilo(r.photonic_power_w); }},
    {"kj_per_job", "kJ", "energy",
     [](R r) {
       return r.jobs.accepted ? kilo(r.energy_joules) / n(r.jobs.accepted) : 0.0;
     }},
    {"completed_ms", "ms", "energy",
     [](R r) { return static_cast<double>(r.completed_at) / sim::kPsPerMs; }},
    // events: the event loop's always-on counters
    {"events_scheduled", "count", "events", [](R r) { return n(r.jobs.events.scheduled); }},
    {"events_dispatched", "count", "events",
     [](R r) { return n(r.jobs.events.dispatched); }},
    {"events_cancelled", "count", "events", [](R r) { return n(r.jobs.events.cancelled); }},
    {"pending_peak", "count", "events", [](R r) { return n(r.jobs.events.pending_peak); }},
    // fault: resilience outcome (all defaults when faults are off)
    {"faults", "count", "fault", [](R r) { return n(r.fault.faults); }},
    {"repairs", "count", "fault", [](R r) { return n(r.fault.repairs); }},
    {"interrupted", "count", "fault", [](R r) { return n(r.fault.interrupted); }},
    {"requeued", "count", "fault", [](R r) { return n(r.fault.requeued); }},
    {"degraded", "count", "fault", [](R r) { return n(r.fault.degraded); }},
    {"killed", "count", "fault", [](R r) { return n(r.fault.killed); }},
    {"goodput", "count", "fault", [](R r) { return n(r.fault.goodput_jobs); }},
    {"availability", "frac", "fault", [](R r) { return r.fault.availability; }},
    {"work_lost_ms", "ms", "fault", [](R r) { return r.fault.work_lost_ms; }},
    {"mttr_ms", "ms", "fault", [](R r) { return r.fault.mean_mttr_ms; }},
    // ml: the training-job stream (all zero when ml.* is off)
    {"ml_offered", "count", "ml", [](R r) { return n(r.ml.jobs_offered); }},
    {"ml_accepted", "count", "ml", [](R r) { return n(r.ml.jobs_accepted); }},
    {"ml_completed", "count", "ml", [](R r) { return n(r.ml.jobs_completed); }},
    {"ml_steps", "count", "ml", [](R r) { return n(r.ml.steps); }},
    {"ml_phases", "count", "ml", [](R r) { return n(r.ml.collective_phases); }},
    {"step_p50_ms", "ms", "ml", [](R r) { return r.ml.step_ms.p50; }},
    {"step_p99_ms", "ms", "ml", [](R r) { return r.ml.step_ms.p99; }},
    {"step_p999_ms", "ms", "ml", [](R r) { return r.ml.step_ms.p999; }},
    {"coll_frac_p50", "frac", "ml", [](R r) { return r.ml.coll_frac.p50; }},
    {"coll_frac_p99", "frac", "ml", [](R r) { return r.ml.coll_frac.p99; }},
    {"coll_frac_p999", "frac", "ml", [](R r) { return r.ml.coll_frac.p999; }},
    {"straggler_p50", "x", "ml", [](R r) { return r.ml.straggler.p50; }},
    {"straggler_p99", "x", "ml", [](R r) { return r.ml.straggler.p99; }},
    {"straggler_p999", "x", "ml", [](R r) { return r.ml.straggler.p999; }},
};

}  // namespace

const std::vector<ReportField>& report_fields() { return kFields; }

const ReportField& report_field(std::string_view name) {
  for (const ReportField& field : kFields)
    if (field.name == name) return field;
  throw std::out_of_range("unknown report field '" + std::string(name) + "'");
}

}  // namespace photorack::cosim
