#pragma once

#include <cstdint>

#include "sim/enum_codec.hpp"
#include "sim/time.hpp"

namespace photorack::fault {

/// Component classes the fault engine can break.  The first two are
/// crash-stop (the component and everything depending on it is gone until
/// repair); the last two degrade the wavelength fabric only.
enum class ComponentClass : int {
  kMcm = 0,    // memory-pool MCM crash-stop: every pair touching it goes dark
  kNode = 1,   // compute-node crash-stop: jobs bound to it lose their CPUs
  kLink = 2,   // one (src,dst) wavelength-pair cut: that pair goes dark
  kLaser = 3,  // comb-laser degradation: pair capacity scales by degrade_fraction
};

/// Canonical spelling ("mcm"|"node"|"link"|"laser") for traces and tests.
[[nodiscard]] const sim::EnumCodec<ComponentClass>& component_class_codec();

enum class FaultKind : int {
  kFail = 0,
  kRepair = 1,
};

/// What happens to a placed job whose allocation a fault revokes.
enum class ResiliencePolicy {
  kKill,     ///< the job is lost; its elapsed service time becomes work_lost
  kRequeue,  ///< retry with exponential backoff (capped), reusing the backlog
  kDegrade,  ///< fabric faults: drop dead flows, resume at the reduced speed;
             ///< node faults still requeue (a crashed CPU cannot degrade)
};

/// Canonical CLI/axis/registry spelling: "kill" | "requeue" | "degrade".
[[nodiscard]] const sim::EnumCodec<ResiliencePolicy>& resilience_policy_codec();

/// The "fault" registry section.  All-zero MTBFs (the default) generate an
/// empty timeline, and enabled=false skips the engine entirely — either way
/// every campaign row, report field and RNG stream is byte-identical to a
/// fault-free build (pinned by tests/test_fault.cpp).
struct FaultConfig {
  bool enabled = false;
  ResiliencePolicy policy = ResiliencePolicy::kRequeue;

  // Mean time between failures / to repair, per component class.  An MTBF
  // of 0 disables that class.  Exponential laws on both sides, drawn from
  // per-component child RNG streams (same discipline as job demands).
  double mcm_mtbf_ms = 0.0;
  double mcm_mttr_ms = 20.0;
  double node_mtbf_ms = 0.0;
  double node_mttr_ms = 20.0;
  double link_mtbf_ms = 0.0;
  double link_mttr_ms = 10.0;
  double laser_mtbf_ms = 0.0;
  double laser_mttr_ms = 50.0;

  /// Pair-capacity multiplier while a laser is degraded (graceful
  /// degradation: routing sees less Gb/s, jobs stretch via the existing
  /// satisfied-fraction feedback instead of dying).
  double degrade_fraction = 0.5;

  // kRequeue shape: retry k waits min(backoff_cap, backoff_base * 2^k).
  int max_retries = 3;
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 64.0;
};

/// One entry of the deterministic fault timeline.  `a` is the MCM or node
/// index for crash-stop classes, the pair source for link/laser; `b` is the
/// pair destination (-1 for crash-stop classes).
struct FaultEvent {
  sim::TimePs at = 0;
  FaultKind kind = FaultKind::kFail;
  ComponentClass cls = ComponentClass::kMcm;
  int a = 0;
  int b = -1;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Fault-path outcome counters, folded into CosimReport.  All-default when
/// the engine is disabled.
struct FaultStats {
  bool enabled = false;
  std::uint64_t faults = 0;       // fail events injected
  std::uint64_t repairs = 0;      // repair events applied
  std::uint64_t interrupted = 0;  // placed jobs revoked by a fault
  std::uint64_t requeued = 0;     // retry attempts scheduled
  std::uint64_t degraded = 0;     // jobs resumed at reduced speed
  std::uint64_t killed = 0;       // jobs permanently lost (incl. retries spent)
  std::uint64_t goodput_jobs = 0; // accepted jobs that ran to completion
  double work_lost_ms = 0.0;      // service time destroyed by revocations
  double availability = 1.0;      // 1 - mean crash-component downtime fraction
  double mean_mttr_ms = 0.0;      // measured repair time over the timeline
};

}  // namespace photorack::fault
