#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::net {

WavelengthFabric::WavelengthFabric(int mcms, const rack::AwgrFabricPlan& plan)
    : mcms_(mcms),
      radix_(plan.awgr_radix),
      gbps_per_lambda_(plan.direct_pair_bandwidth.value /
                       std::max(1, plan.min_direct_lambdas_per_pair)),
      lambdas_(plan.lambdas_per_port) {
  if (mcms <= 0 || mcms > radix_)
    throw std::invalid_argument("WavelengthFabric: MCM count must fit the AWGR radix");
  if (lambdas_.empty()) throw std::invalid_argument("WavelengthFabric: no AWGRs in plan");
  alloc_.assign(lambdas_.size(),
                std::vector<double>(static_cast<std::size_t>(mcms_) * mcms_, 0.0));
}

bool WavelengthFabric::covers(int awgr, int src, int dst) const {
  if (src == dst) return false;
  // The port drives its first `lambdas_[awgr]` wavelength indices; the
  // cyclic AWGR shuffle lambda = (src+dst) mod radix then determines which
  // destinations those wavelengths land on.
  return (src + dst) % radix_ < lambdas_[static_cast<std::size_t>(awgr)];
}

int WavelengthFabric::direct_lambdas(int src, int dst) const {
  int n = 0;
  for (int a = 0; a < parallel_awgrs(); ++a) n += covers(a, src, dst) ? 1 : 0;
  return n;
}

double WavelengthFabric::direct_capacity(int src, int dst) const {
  // scale == 1 multiplies by exactly 1.0, so healthy capacity is unchanged
  // bit for bit.
  return direct_lambdas(src, dst) * gbps_per_lambda_ * pair_scale(src, dst);
}

double WavelengthFabric::free_direct(int src, int dst) const {
  // The scale != 1 branch clamps at zero because reservations made before a
  // degradation may exceed the reduced capacity; the healthy branch keeps
  // the historical expression bit for bit (it can carry an epsilon-negative
  // residue that downstream arithmetic depends on byte-identically).
  const double scale = pair_scale(src, dst);
  double free = 0.0;
  for (int a = 0; a < parallel_awgrs(); ++a) {
    if (!covers(a, src, dst)) continue;
    const double used = alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
    free += scale == 1.0 ? gbps_per_lambda_ - used
                         : std::max(0.0, gbps_per_lambda_ * scale - used);
  }
  return free;
}

double WavelengthFabric::allocated(int src, int dst) const {
  double total = 0.0;
  for (int a = 0; a < parallel_awgrs(); ++a)
    total += alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
  return total;
}

double WavelengthFabric::allocate_direct(int src, int dst, double gbps) {
  const double scale = pair_scale(src, dst);
  double granted = 0.0;
  for (int a = 0; a < parallel_awgrs() && gbps > granted; ++a) {
    if (!covers(a, src, dst)) continue;
    auto& used = alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
    // Same clamping asymmetry as free_direct: the scaled wavelength may
    // already hold more than its reduced capacity, which must grant zero,
    // never a negative take.
    const double avail = scale == 1.0
                             ? gbps_per_lambda_ - used
                             : std::max(0.0, gbps_per_lambda_ * scale - used);
    const double take = std::min(gbps - granted, avail);
    used += take;
    granted += take;
  }
  return granted;
}

void WavelengthFabric::release_direct(int src, int dst, double gbps) {
  for (int a = 0; a < parallel_awgrs() && gbps > 0.0; ++a) {
    if (!covers(a, src, dst)) continue;
    auto& used = alloc_[static_cast<std::size_t>(a)][idx(src, dst)];
    const double give = std::min(gbps, used);
    used -= give;
    gbps -= give;
  }
  if (gbps > 1e-9) throw std::logic_error("release_direct: released more than allocated");
}

std::vector<double> WavelengthFabric::allocation_snapshot() const {
  std::vector<double> snapshot;
  snapshot.reserve(alloc_.size() * static_cast<std::size_t>(mcms_) * mcms_);
  for (const auto& table : alloc_) {
    snapshot.insert(snapshot.end(), table.begin(), table.end());
  }
  return snapshot;
}

double WavelengthFabric::utilization() const {
  double cap = 0.0, used = 0.0;
  for (int a = 0; a < parallel_awgrs(); ++a) {
    for (int s = 0; s < mcms_; ++s) {
      for (int d = 0; d < mcms_; ++d) {
        if (!covers(a, s, d)) continue;
        const double scale = pair_scale(s, d);
        cap += scale == 1.0 ? gbps_per_lambda_ : gbps_per_lambda_ * scale;
        used += alloc_[static_cast<std::size_t>(a)][idx(s, d)];
      }
    }
  }
  return cap > 0.0 ? used / cap : 0.0;
}

void WavelengthFabric::check_pair(int src, int dst, double value,
                                  const char* who) const {
  if (src == dst || src < 0 || dst < 0 || src >= mcms_ || dst >= mcms_)
    throw std::invalid_argument(std::string(who) + ": bad pair");
  if (value < 0.0 || value > 1.0)
    throw std::invalid_argument(std::string(who) + ": value must be in [0,1]");
}

void WavelengthFabric::recompute_scale(int src, int dst) {
  // Product over a value-sorted copy: the effective scale depends only on
  // the SET of live factors, never on push order, so two fault histories
  // that leave the same faults active read identical capacity bits.  No
  // factors multiplies nothing into 1.0 — the exact healthy scale.
  std::vector<double> live = factors_[idx(src, dst)];
  std::sort(live.begin(), live.end());
  double scale = 1.0;
  for (const double f : live) scale *= f;
  scale_[idx(src, dst)] = scale;
}

void WavelengthFabric::push_pair_factor(int src, int dst, double factor) {
  check_pair(src, dst, factor, "push_pair_factor");
  if (scale_.empty())
    scale_.assign(static_cast<std::size_t>(mcms_) * mcms_, 1.0);
  if (factors_.empty())
    factors_.assign(static_cast<std::size_t>(mcms_) * mcms_, {});
  factors_[idx(src, dst)].push_back(factor);
  recompute_scale(src, dst);
}

void WavelengthFabric::pop_pair_factor(int src, int dst, double factor) {
  check_pair(src, dst, factor, "pop_pair_factor");
  if (factors_.empty())
    throw std::logic_error("pop_pair_factor: no factors live on the fabric");
  auto& live = factors_[idx(src, dst)];
  const auto it = std::find(live.begin(), live.end(), factor);
  if (it == live.end())
    throw std::logic_error("pop_pair_factor: factor not live on this pair");
  live.erase(it);
  recompute_scale(src, dst);
}

}  // namespace photorack::net
