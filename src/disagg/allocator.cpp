#include "disagg/allocator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

namespace photorack::disagg {

namespace {

/// Allocation ids are unique across every allocator in the process, so an
/// Allocation handed to the wrong allocator can never alias an id that
/// allocator granted itself — release() then reliably throws instead of
/// silently draining pools that were never charged.
std::uint64_t next_global_allocation_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const sim::EnumCodec<AllocationPolicy>& allocation_policy_codec() {
  static const sim::EnumCodec<AllocationPolicy> codec(
      "policy", {{"static", AllocationPolicy::kStaticNodes},
                 {"disagg", AllocationPolicy::kDisaggregated}});
  return codec;
}

RackAllocator::RackAllocator(const rack::RackConfig& rack, AllocationPolicy policy,
                             double memory_gb_per_node, double nic_gbps_per_node)
    : policy_(policy),
      nodes_(rack.nodes),
      cpus_per_node_(rack.node.cpus),
      gpus_per_node_(rack.node.gpus),
      memory_gb_per_node_(memory_gb_per_node),
      nic_gbps_per_node_(nic_gbps_per_node),
      free_nodes_(rack.nodes) {
  pools_.cpus_total = nodes_ * cpus_per_node_;
  pools_.gpus_total = nodes_ * gpus_per_node_;
  pools_.memory_gb_total = nodes_ * memory_gb_per_node_;
  pools_.nic_gbps_total = nodes_ * nic_gbps_per_node_;
}

Allocation RackAllocator::allocate(const JobRequest& req) {
  Allocation a;
  if (req.cpus < 0 || req.gpus < 0 || req.memory_gb < 0 || req.nic_gbps < 0)
    throw std::invalid_argument("allocate: negative request");
  ++counters_.attempts;

  if (policy_ == AllocationPolicy::kStaticNodes) {
    // A job gets the smallest node count covering its largest per-resource
    // demand; everything else in those nodes is marooned.
    int need = 0;
    need = std::max(need, (req.cpus + cpus_per_node_ - 1) / std::max(1, cpus_per_node_));
    need = std::max(need, gpus_per_node_ > 0
                              ? (req.gpus + gpus_per_node_ - 1) / gpus_per_node_
                              : 0);
    need = std::max(
        need, static_cast<int>(std::ceil(req.memory_gb / memory_gb_per_node_)));
    need = std::max(need,
                    static_cast<int>(std::ceil(req.nic_gbps / nic_gbps_per_node_)));
    need = std::max(need, 1);
    if (need > free_nodes_) return a;
    free_nodes_ -= need;
    a.placed = true;
    a.nodes = need;
    a.cpus = need * cpus_per_node_;
    a.gpus = need * gpus_per_node_;
    a.memory_gb = need * memory_gb_per_node_;
    a.nic_gbps = need * nic_gbps_per_node_;
    pools_.cpus_used += a.cpus;
    pools_.gpus_used += a.gpus;
    pools_.memory_gb_used += a.memory_gb;
    pools_.nic_gbps_used += a.nic_gbps;
    a.marooned_cpus = std::max(0.0, static_cast<double>(a.cpus - req.cpus));
    a.marooned_memory_gb = std::max(0.0, a.memory_gb - req.memory_gb);
    marooned_cpus_ += a.marooned_cpus;
    marooned_memory_gb_ += a.marooned_memory_gb;
  } else {
    if (req.cpus > pools_.cpus_total - pools_.cpus_used) return a;
    if (req.gpus > pools_.gpus_total - pools_.gpus_used) return a;
    if (req.memory_gb > pools_.memory_gb_total - pools_.memory_gb_used) return a;
    if (req.nic_gbps > pools_.nic_gbps_total - pools_.nic_gbps_used) return a;
    a.placed = true;
    a.cpus = req.cpus;
    a.gpus = req.gpus;
    a.memory_gb = req.memory_gb;
    a.nic_gbps = req.nic_gbps;
    pools_.cpus_used += a.cpus;
    pools_.gpus_used += a.gpus;
    pools_.memory_gb_used += a.memory_gb;
    pools_.nic_gbps_used += a.nic_gbps;
  }
  ++counters_.placements;
  a.id = next_global_allocation_id();
  live_.emplace(a.id, a);
  return a;
}

void RackAllocator::release(const Allocation& alloc) { reclaim(alloc, false); }

void RackAllocator::revoke(const Allocation& alloc) { reclaim(alloc, true); }

void RackAllocator::reclaim(const Allocation& alloc, bool revoked) {
  if (!alloc.placed) return;
  const auto it = live_.find(alloc.id);
  if (it == live_.end())
    throw std::logic_error(std::string(revoked ? "revoke" : "release") +
                           ": allocation id " + std::to_string(alloc.id) +
                           " was never granted or is already released");
  // Decrement by the grant this allocator recorded, never by the caller's
  // copy: mutated Allocation fields cannot skew the accounting, and the
  // pools can only ever return to exactly what allocate() charged.
  const Allocation granted = it->second;
  live_.erase(it);
  ++(revoked ? counters_.revocations : counters_.releases);
  pools_.cpus_used -= granted.cpus;
  pools_.gpus_used -= granted.gpus;
  pools_.memory_gb_used -= granted.memory_gb;
  pools_.nic_gbps_used -= granted.nic_gbps;
  if (policy_ == AllocationPolicy::kStaticNodes) {
    free_nodes_ += granted.nodes;
    marooned_cpus_ -= granted.marooned_cpus;
    marooned_memory_gb_ -= granted.marooned_memory_gb;
  }
  if (live_.empty()) {
    // Releasing in a different order than allocating leaves ~1e-16-scale
    // residue in the floating-point accumulators; an empty allocator must
    // be *bit-exactly* pristine ("free restores exactly").  Keep the
    // threshold tight: it must absorb rounding residue only, never mask a
    // genuine sub-microscopic accounting leak.
    constexpr double kRoundingEps = 1e-9;
    auto snap = [](double& v) {
      if (v > -kRoundingEps && v < kRoundingEps) v = 0.0;
    };
    snap(pools_.memory_gb_used);
    snap(pools_.nic_gbps_used);
    snap(marooned_cpus_);
    snap(marooned_memory_gb_);
  }
}

void RackAllocator::take_nodes_offline(int count) {
  if (count <= 0) throw std::invalid_argument("take_nodes_offline: count must be > 0");
  if (count > nodes_ - offline_nodes_)
    throw std::logic_error("take_nodes_offline: only " +
                           std::to_string(nodes_ - offline_nodes_) + " nodes online");
  // Under static nodes a node is either whole-free or whole-granted; the
  // fault path must revoke the victims before retiring their nodes, so an
  // occupied node here is a sequencing bug, not a recoverable state.
  if (policy_ == AllocationPolicy::kStaticNodes && count > free_nodes_)
    throw std::logic_error("take_nodes_offline: node still allocated (revoke first)");
  offline_nodes_ += count;
  free_nodes_ -= count;
  pools_.cpus_total -= count * cpus_per_node_;
  pools_.gpus_total -= count * gpus_per_node_;
  pools_.memory_gb_total -= count * memory_gb_per_node_;
  pools_.nic_gbps_total -= count * nic_gbps_per_node_;
}

void RackAllocator::bring_nodes_online(int count) {
  if (count <= 0) throw std::invalid_argument("bring_nodes_online: count must be > 0");
  if (count > offline_nodes_)
    throw std::logic_error("bring_nodes_online: only " +
                           std::to_string(offline_nodes_) + " nodes offline");
  offline_nodes_ -= count;
  free_nodes_ += count;
  pools_.cpus_total += count * cpus_per_node_;
  pools_.gpus_total += count * gpus_per_node_;
  pools_.memory_gb_total += count * memory_gb_per_node_;
  pools_.nic_gbps_total += count * nic_gbps_per_node_;
}

double RackAllocator::marooned_cpu_fraction() const {
  return pools_.cpus_total ? marooned_cpus_ / pools_.cpus_total : 0.0;
}

double RackAllocator::marooned_memory_fraction() const {
  return pools_.memory_gb_total > 0 ? marooned_memory_gb_ / pools_.memory_gb_total : 0.0;
}

}  // namespace photorack::disagg
