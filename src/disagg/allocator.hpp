#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rack/chips.hpp"
#include "sim/enum_codec.hpp"

namespace photorack::disagg {

/// Resources one job asks for.  Units: whole CPUs/GPUs, GB of memory,
/// Gb/s of injection bandwidth.
struct JobRequest {
  int cpus = 0;
  int gpus = 0;
  double memory_gb = 0.0;
  double nic_gbps = 0.0;
};

/// What a placement consumed.  For node-granular placement this is whole
/// nodes; for disaggregated placement it is the exact request.
struct Allocation {
  bool placed = false;
  int nodes = 0;  // node-granular only
  int cpus = 0;
  int gpus = 0;
  double memory_gb = 0.0;
  double nic_gbps = 0.0;
  double marooned_cpus = 0.0;       // granted-but-unrequested (static nodes)
  double marooned_memory_gb = 0.0;
  std::uint64_t id = 0;
};

/// Aggregate pool state for one rack.
struct PoolState {
  int cpus_total = 0, cpus_used = 0;
  int gpus_total = 0, gpus_used = 0;
  double memory_gb_total = 0, memory_gb_used = 0;
  double nic_gbps_total = 0, nic_gbps_used = 0;

  [[nodiscard]] double cpu_utilization() const {
    return cpus_total ? static_cast<double>(cpus_used) / cpus_total : 0.0;
  }
  [[nodiscard]] double gpu_utilization() const {
    return gpus_total ? static_cast<double>(gpus_used) / gpus_total : 0.0;
  }
  [[nodiscard]] double memory_utilization() const {
    return memory_gb_total > 0 ? memory_gb_used / memory_gb_total : 0.0;
  }
  [[nodiscard]] double nic_utilization() const {
    return nic_gbps_total > 0 ? nic_gbps_used / nic_gbps_total : 0.0;
  }
};

/// Always-on allocate()/release() call counters.  Plain integer increments
/// on paths that already branch and hash — cheap enough to never gate.
struct AllocatorCounters {
  std::uint64_t attempts = 0;     // allocate() calls past validation
  std::uint64_t placements = 0;   // allocations that were granted
  std::uint64_t releases = 0;     // placed allocations returned voluntarily
  std::uint64_t revocations = 0;  // placed allocations reclaimed by a fault

  [[nodiscard]] std::uint64_t rejections() const { return attempts - placements; }
};

/// Allocation policy of the rack under study.
///
/// kStaticNodes: today's model — jobs receive whole, identical nodes; every
/// resource in a granted node is unavailable to others even when unused
/// ("marooned resources", §I).
///
/// kDisaggregated: the paper's model — each resource type is an independent
/// rack-wide pool; jobs take exactly what they request.
enum class AllocationPolicy { kStaticNodes, kDisaggregated };

/// Canonical CLI/campaign-axis/registry spellings: "static" | "disagg".
/// The one definition shared by photorack_cosim, the scenario campaigns
/// and the config-registry bindings.
[[nodiscard]] const sim::EnumCodec<AllocationPolicy>& allocation_policy_codec();

/// Thin wrappers over allocation_policy_codec() for existing call sites.
[[nodiscard]] AllocationPolicy parse_allocation_policy(const std::string& v);
[[nodiscard]] const char* to_string(AllocationPolicy policy);

class RackAllocator {
 public:
  RackAllocator(const rack::RackConfig& rack, AllocationPolicy policy,
                double memory_gb_per_node = 256.0, double nic_gbps_per_node = 800.0);

  /// Try to place a job; marooned resources are tracked for static nodes.
  [[nodiscard]] Allocation allocate(const JobRequest& req);

  /// Return a placed allocation's resources to the pools.  Only `placed`
  /// and `id` are consulted: the pools are decremented by the *stored*
  /// grant, so caller-side mutation of an Allocation's resource fields can
  /// never skew the accounting.  Releasing an unplaced allocation is a
  /// no-op; releasing an id this allocator never granted, or the same id
  /// twice, throws std::logic_error before touching any pool.
  void release(const Allocation& alloc);

  /// Forcibly reclaim a live grant on the fault path.  Accounting is
  /// identical to release() — pools return to exactly what allocate()
  /// charged — but the reclaim lands on the `revocations` counter so
  /// reports can separate voluntary completion from fault revocation.
  /// Same invariants: an unplaced allocation is a no-op; an id this
  /// allocator never granted, an already-released id, or a double revoke
  /// throws std::logic_error BEFORE any pool is touched.
  void revoke(const Allocation& alloc);

  /// Crash-stop `count` nodes: their capacity leaves every pool (and the
  /// static-node free list).  The caller must revoke the victims bound to
  /// the dying nodes FIRST — under static nodes taking an occupied node
  /// offline throws std::logic_error.  Under disaggregation a fault may
  /// transiently leave used > total; allocate() already rejects in that
  /// state, so the invariant used <= total is restored as jobs drain.
  void take_nodes_offline(int count);
  /// Repair path: restore `count` previously offline nodes' capacity.
  void bring_nodes_online(int count);
  [[nodiscard]] int offline_nodes() const { return offline_nodes_; }

  [[nodiscard]] const PoolState& pools() const { return pools_; }
  [[nodiscard]] const AllocatorCounters& counters() const { return counters_; }
  [[nodiscard]] AllocationPolicy policy() const { return policy_; }
  [[nodiscard]] int free_nodes() const { return free_nodes_; }
  [[nodiscard]] std::size_t live_allocations() const { return live_.size(); }

  /// Resources granted but idle (static-node only): the utilization gap
  /// that motivates disaggregation.
  [[nodiscard]] double marooned_cpu_fraction() const;
  [[nodiscard]] double marooned_memory_fraction() const;

 private:
  AllocationPolicy policy_;
  int nodes_;
  int cpus_per_node_;
  int gpus_per_node_;
  double memory_gb_per_node_;
  double nic_gbps_per_node_;
  int free_nodes_;
  PoolState pools_;
  // Grants not yet released, keyed by id; release() decrements by the
  // stored record, never by the caller's (possibly mutated) copy.
  std::unordered_map<std::uint64_t, Allocation> live_;

  int offline_nodes_ = 0;
  double marooned_cpus_ = 0.0;
  double marooned_memory_gb_ = 0.0;
  AllocatorCounters counters_;

  void reclaim(const Allocation& alloc, bool revoked);
};

}  // namespace photorack::disagg
