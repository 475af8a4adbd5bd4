#include "collectives/runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace photorack::collectives {

CollectiveRunner::CollectiveRunner(net::FlowEngine& engine, sim::EventQueue& queue,
                                   CollectiveSpec spec,
                                   std::shared_ptr<const CompiledCollective> program)
    : engine_(engine), queue_(queue), spec_(std::move(spec)), program_(std::move(program)) {
  if (spec_.endpoints.empty()) {
    throw std::invalid_argument("CollectiveRunner: no endpoints");
  }
  if (!(spec_.demand_gbps > 0.0)) {
    throw std::invalid_argument("CollectiveRunner: demand_gbps must be > 0");
  }
  if (!(spec_.rate_scale > 0.0) || spec_.rate_scale > 1.0) {
    throw std::invalid_argument("CollectiveRunner: rate_scale must be in (0, 1]");
  }
  if (!(spec_.min_rate_fraction > 0.0) || spec_.min_rate_fraction > 1.0) {
    throw std::invalid_argument(
        "CollectiveRunner: min_rate_fraction must be in (0, 1]");
  }
  const int ranks = static_cast<int>(spec_.endpoints.size());
  if (!program_) {
    program_ = std::make_shared<const CompiledCollective>(spec_.pattern, ranks, spec_.bytes);
  } else if (!program_->compiled_for(spec_.pattern, ranks, spec_.bytes)) {
    throw std::invalid_argument(
        "CollectiveRunner: program compiled for another pattern, rank count or size");
  }
}

CollectiveRunner::~CollectiveRunner() { abort(); }

void CollectiveRunner::start(std::function<void(const CollectiveResult&)> done) {
  if (running_) throw std::logic_error("CollectiveRunner: already running");
  done_ = std::move(done);
  running_ = true;
  started_ = queue_.now();
  next_phase_ = 0;
  slowest_sum_ps_ = mean_sum_ps_ = 0.0;
  flows_opened_ = 0;
  start_phase();
}

void CollectiveRunner::start_phase() {
  if (next_phase_ >= program_->phases.size()) {
    // Completed program (or an empty one): report via a zero-delay event so
    // the done handler never runs synchronously inside start()/close paths.
    phase_event_ = queue_.schedule_after(0, [this]() {
      phase_event_live_ = false;
      running_ = false;
      CollectiveResult result;
      result.elapsed = queue_.now() - started_;
      result.phases = static_cast<int>(program_->phases.size());
      result.flows = flows_opened_;
      result.straggler_stretch =
          mean_sum_ps_ > 0.0 ? slowest_sum_ps_ / mean_sum_ps_ : 1.0;
      // The handler may destroy this runner: move it out and touch nothing
      // afterwards.
      auto handler = std::move(done_);
      if (handler) handler(result);
    });
    phase_event_live_ = true;
    return;
  }

  engine_.refresh_view(queue_.now());
  const Phase& phase = program_->phases[next_phase_];
  double slowest_ps = 0.0;
  double sum_ps = 0.0;
  int opened = 0;
  for (const PhaseFlow& flow : phase.flows) {
    const int src = spec_.endpoints[static_cast<std::size_t>(flow.src)];
    const int dst = spec_.endpoints[static_cast<std::size_t>(flow.dst)];
    if (src == dst) continue;  // co-located ranks exchange through local memory
    const net::FlowSpec fs{src, dst, spec_.demand_gbps, 0};
    const std::uint64_t id = engine_.open(fs, queue_.now());
    open_ids_.push_back(id);
    open_specs_.push_back(fs);
    const double floor_gbps = spec_.demand_gbps * spec_.min_rate_fraction;
    const double rate_gbps =
        std::max(engine_.result(id).satisfied(), floor_gbps) * spec_.rate_scale;
    // bytes * 8 bits at rate_gbps * 1e9 bit/s, expressed in picoseconds.
    const double t_ps = flow.bytes * 8000.0 / rate_gbps;
    slowest_ps = std::max(slowest_ps, t_ps);
    sum_ps += t_ps;
    ++opened;
  }
  flows_opened_ += static_cast<std::uint64_t>(opened);
  slowest_sum_ps_ += slowest_ps;
  if (opened > 0) mean_sum_ps_ += sum_ps / opened;

  const auto duration =
      std::max<sim::TimePs>(1, static_cast<sim::TimePs>(std::ceil(slowest_ps)));
  phase_event_ = queue_.schedule_after(duration, [this]() { finish_phase(); });
  phase_event_live_ = true;
}

void CollectiveRunner::finish_phase() {
  phase_event_live_ = false;
  for (const std::uint64_t id : open_ids_) engine_.close(id, queue_.now());
  open_ids_.clear();
  open_specs_.clear();
  ++next_phase_;
  start_phase();
}

void CollectiveRunner::abort() {
  if (!running_) return;
  for (const std::uint64_t id : open_ids_) engine_.close(id, queue_.now());
  open_ids_.clear();
  open_specs_.clear();
  if (phase_event_live_) {
    queue_.cancel(phase_event_);
    phase_event_live_ = false;
  }
  running_ = false;
  done_ = nullptr;
}

}  // namespace photorack::collectives
