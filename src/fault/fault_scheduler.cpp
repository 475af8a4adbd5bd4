#include "fault/fault_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace photorack::fault {

namespace {

/// Stream-id bases for the per-component children of the fault root
/// (sim::Rng(seed).child(3)).  Link and laser streams are keyed by the
/// pair's source MCM: one stream drives that source's successive cuts, with
/// the destination drawn inside the stream — bounding the stream count at
/// O(mcms + nodes) instead of O(mcms^2).
constexpr std::uint64_t kMcmStreamBase = 0x10000;
constexpr std::uint64_t kNodeStreamBase = 0x20000;
constexpr std::uint64_t kLinkStreamBase = 0x30000;
constexpr std::uint64_t kLaserStreamBase = 0x40000;

void validate(const FaultConfig& cfg) {
  auto check_class = [](double mtbf, double mttr, const char* name) {
    if (mtbf < 0.0)
      throw std::invalid_argument(std::string("fault: ") + name +
                                  "_mtbf_ms must be non-negative");
    if (mtbf > 0.0 && mttr <= 0.0)
      throw std::invalid_argument(std::string("fault: ") + name +
                                  "_mttr_ms must be positive when the class is active");
  };
  check_class(cfg.mcm_mtbf_ms, cfg.mcm_mttr_ms, "mcm");
  check_class(cfg.node_mtbf_ms, cfg.node_mttr_ms, "node");
  check_class(cfg.link_mtbf_ms, cfg.link_mttr_ms, "link");
  check_class(cfg.laser_mtbf_ms, cfg.laser_mttr_ms, "laser");
  if (cfg.degrade_fraction <= 0.0 || cfg.degrade_fraction > 1.0)
    throw std::invalid_argument("fault: degrade_fraction must be in (0,1]");
  if (cfg.max_retries < 0)
    throw std::invalid_argument("fault: max_retries must be non-negative");
  if (cfg.backoff_base_ms <= 0.0 || cfg.backoff_cap_ms < cfg.backoff_base_ms)
    throw std::invalid_argument(
        "fault: want 0 < backoff_base_ms <= backoff_cap_ms");
}

sim::TimePs draw_gap(sim::Rng& rng, double mean_ms) {
  return std::max<sim::TimePs>(
      1, static_cast<sim::TimePs>(rng.exponential(mean_ms) *
                                  static_cast<double>(sim::kPsPerMs)));
}

/// One component's alternating up/down renewal process.  `pick_pair` draws
/// the affected pair for fabric classes (null for crash-stop classes).
template <typename PickPair>
void generate_component(std::vector<FaultEvent>& out, sim::Rng rng,
                        ComponentClass cls, int index, double mtbf_ms,
                        double mttr_ms, sim::TimePs horizon, PickPair pick_pair) {
  sim::TimePs t = 0;
  for (;;) {
    const sim::TimePs up = draw_gap(rng, mtbf_ms);
    if (up >= horizon - t) return;  // subtraction form: no overflow near the cap
    t += up;
    const auto [a, b] = pick_pair(rng, index);
    const sim::TimePs down = draw_gap(rng, mttr_ms);
    out.push_back(FaultEvent{t, FaultKind::kFail, cls, a, b});
    out.push_back(FaultEvent{t + down, FaultKind::kRepair, cls, a, b});
    t += down;
  }
}

}  // namespace

const sim::EnumCodec<ComponentClass>& component_class_codec() {
  static const sim::EnumCodec<ComponentClass> codec(
      "component class", {{"mcm", ComponentClass::kMcm},
                          {"node", ComponentClass::kNode},
                          {"link", ComponentClass::kLink},
                          {"laser", ComponentClass::kLaser}});
  return codec;
}

const sim::EnumCodec<ResiliencePolicy>& resilience_policy_codec() {
  static const sim::EnumCodec<ResiliencePolicy> codec(
      "resilience policy", {{"kill", ResiliencePolicy::kKill},
                            {"requeue", ResiliencePolicy::kRequeue},
                            {"degrade", ResiliencePolicy::kDegrade}});
  return codec;
}

std::vector<FaultEvent> derive_timeline(const FaultConfig& cfg, int mcms, int nodes,
                                        std::uint64_t seed, sim::TimePs horizon) {
  validate(cfg);
  if (mcms < 2) throw std::invalid_argument("fault: need >= 2 MCMs");
  if (nodes < 1) throw std::invalid_argument("fault: need >= 1 node");

  std::vector<FaultEvent> timeline;
  if (horizon <= 0) return timeline;
  // child() is const: deriving the fault root never advances the base
  // generator, so with the engine disabled no other stream moves by a byte.
  const sim::Rng root = sim::Rng(seed).child(3);

  auto self = [](sim::Rng&, int index) { return std::pair<int, int>{index, -1}; };
  auto pair_from = [mcms](sim::Rng& rng, int src) {
    const int dst = static_cast<int>(
        (src + 1 + rng.below(static_cast<std::uint64_t>(mcms - 1))) % mcms);
    return std::pair<int, int>{src, dst};
  };

  if (cfg.mcm_mtbf_ms > 0.0)
    for (int m = 0; m < mcms; ++m)
      generate_component(timeline, root.child(kMcmStreamBase + m),
                         ComponentClass::kMcm, m, cfg.mcm_mtbf_ms, cfg.mcm_mttr_ms,
                         horizon, self);
  if (cfg.node_mtbf_ms > 0.0)
    for (int n = 0; n < nodes; ++n)
      generate_component(timeline, root.child(kNodeStreamBase + n),
                         ComponentClass::kNode, n, cfg.node_mtbf_ms,
                         cfg.node_mttr_ms, horizon, self);
  if (cfg.link_mtbf_ms > 0.0)
    for (int s = 0; s < mcms; ++s)
      generate_component(timeline, root.child(kLinkStreamBase + s),
                         ComponentClass::kLink, s, cfg.link_mtbf_ms,
                         cfg.link_mttr_ms, horizon, pair_from);
  if (cfg.laser_mtbf_ms > 0.0)
    for (int s = 0; s < mcms; ++s)
      generate_component(timeline, root.child(kLaserStreamBase + s),
                         ComponentClass::kLaser, s, cfg.laser_mtbf_ms,
                         cfg.laser_mttr_ms, horizon, pair_from);

  // Total deterministic order; per-component streams already alternate
  // fail/repair, and distinct components never collide on the sort key.
  std::sort(timeline.begin(), timeline.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.at, x.cls, x.a, x.b, x.kind) <
                     std::tie(y.at, y.cls, y.a, y.b, y.kind);
            });
  return timeline;
}

FaultScheduler::FaultScheduler(const FaultConfig& cfg, int mcms, int nodes,
                               std::uint64_t seed, sim::TimePs horizon)
    : mcms_(mcms),
      nodes_(nodes),
      timeline_(derive_timeline(cfg, mcms, nodes, seed, horizon)) {}

void FaultScheduler::arm(sim::EventQueue& queue,
                         std::function<void(const FaultEvent&)> handler) const {
  std::vector<sim::TimePs> times;
  times.reserve(timeline_.size());
  for (const FaultEvent& ev : timeline_) times.push_back(ev.at);
  queue.schedule_sorted(std::move(times),
                        [this, handler = std::move(handler)](std::size_t i) {
                          handler(timeline_[i]);
                        });
}

std::size_t FaultScheduler::component(const FaultEvent& ev) const {
  const auto a = static_cast<std::size_t>(ev.a);
  const auto mcms = static_cast<std::size_t>(mcms_);
  switch (ev.cls) {
    case ComponentClass::kMcm:
      return a;
    case ComponentClass::kNode:
      return mcms + a;
    case ComponentClass::kLink:
      return mcms + static_cast<std::size_t>(nodes_) + a;
    case ComponentClass::kLaser:
      break;
  }
  return 2 * mcms + static_cast<std::size_t>(nodes_) + a;
}

void TimelineSums::merge(const TimelineSums& other) {
  downtime_ps += other.downtime_ps;
  component_ps += other.component_ps;
  repair_ms += other.repair_ms;
  repairs += other.repairs;
}

double TimelineSums::availability() const {
  return component_ps > 0.0 ? std::clamp(1.0 - downtime_ps / component_ps, 0.0, 1.0)
                            : 1.0;
}

double TimelineSums::mean_mttr_ms() const {
  return repairs ? repair_ms / static_cast<double>(repairs) : 0.0;
}

TimelineSums FaultScheduler::sums(sim::TimePs horizon) const {
  // Pair each fail with its repair (per component; the timeline alternates
  // within a component), sum every repair time, and integrate crash-stop
  // downtime over the window.
  TimelineSums out;
  std::vector<sim::TimePs> fail_at(component_count());
  for (const FaultEvent& ev : timeline_) {
    sim::TimePs& failed = fail_at[component(ev)];
    if (ev.kind == FaultKind::kFail) {
      failed = ev.at;
      continue;
    }
    out.repair_ms += static_cast<double>(ev.at - failed) /
                     static_cast<double>(sim::kPsPerMs);
    ++out.repairs;
    if (horizon > 0 &&
        (ev.cls == ComponentClass::kMcm || ev.cls == ComponentClass::kNode))
      out.downtime_ps += static_cast<double>(std::min(ev.at, horizon) -
                                             std::min(failed, horizon));
  }
  if (horizon > 0)
    out.component_ps = static_cast<double>(horizon) * static_cast<double>(mcms_ + nodes_);
  return out;
}

}  // namespace photorack::fault
