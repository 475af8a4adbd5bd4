#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::net {

namespace {

void put_bit(std::uint64_t& word, int bit, bool on) {
  word = (word & ~(std::uint64_t{1} << bit)) | (std::uint64_t{on} << bit);
}

/// Set bits [lo, hi) of the bitset at `bits`.
void set_run(std::uint64_t* bits, int lo, int hi) {
  for (int i = lo; i < hi;) {
    const int bit = i % 64;
    const int n = std::min(64 - bit, hi - i);
    const std::uint64_t ones = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    bits[i / 64] |= ones << bit;
    i += n;
  }
}

}  // namespace

rack::AwgrFabricPlan slice_awgr_plan(const FabricSliceConfig& slice) {
  rack::AwgrFabricPlan plan;
  plan.parallel_awgrs = slice.lambdas_per_pair;
  plan.awgr_radix = slice.mcms;
  plan.port_wavelength_cap = slice.mcms;
  plan.lambdas_per_port.assign(static_cast<std::size_t>(slice.lambdas_per_pair), slice.mcms);
  plan.full_coverage_awgrs = slice.lambdas_per_pair;
  plan.min_direct_lambdas_per_pair = slice.lambdas_per_pair;
  plan.direct_pair_bandwidth = slice.gbps_per_wavelength * slice.lambdas_per_pair;
  return plan;
}

WavelengthFabric::WavelengthFabric(int mcms, const rack::AwgrFabricPlan& plan)
    : mcms_(mcms),
      radix_(plan.awgr_radix),
      gbps_per_lambda_(plan.direct_pair_bandwidth.value /
                       std::max(1, plan.min_direct_lambdas_per_pair)),
      lambdas_(plan.lambdas_per_port) {
  if (mcms <= 0 || mcms > radix_)
    throw std::invalid_argument("WavelengthFabric: MCM count must fit the AWGR radix");
  if (lambdas_.empty()) throw std::invalid_argument("WavelengthFabric: no AWGRs in plan");
  pairs_ = static_cast<std::size_t>(mcms_) * mcms_;
  alloc_.assign(lambdas_.size() * pairs_, 0.0);
  covered_.assign(alloc_.size(), 0);
  free_.assign(pairs_, 0.0);
  // covers() without its per-entry modulo: src + dst < 2 * radix, so one
  // conditional subtract gives the wavelength index.  An idle healthy pair
  // frees one full wavelength per covering AWGR, summed in AWGR order as
  // refresh_free() would.  The cell loop reads locals, not members: a byte
  // store to covered_ may alias any member and would reload them per cell.
  const std::size_t awgrs = lambdas_.size(), pairs = pairs_;
  const int* const port_lambdas = lambdas_.data();
  std::uint8_t* const covered = covered_.data();
  const double g = gbps_per_lambda_;
  std::size_t cells = 0;
  for (int s = 0; s < mcms_; ++s) {
    for (int d = 0; d < mcms_; ++d) {
      if (s == d) continue;
      int lambda = s + d;
      if (lambda >= radix_) lambda -= radix_;
      const std::size_t pair = idx(s, d);
      double free = 0.0;
      for (std::size_t a = 0; a < awgrs; ++a) {
        if (lambda >= port_lambdas[a]) continue;
        covered[a * pairs + pair] = 1;
        free += g;
        ++cells;
      }
      free_[pair] = free;
    }
  }
  covered_cells_ = cells;
  capacity_ = static_cast<double>(cells) * gbps_per_lambda_;
  // The bitsets follow from the coverage rule rather than pair by pair.  An
  // idle pair's free capacity depends only on its wavelength index and does
  // not grow with it (fewer ports drive a higher index), so the free pairs
  // are those whose index lies below a cut, and row s is at most two runs
  // of destinations: s + d below the cut, and s + d - radix below it.
  // Coverage is symmetric in (s, d), so the idle columns equal the rows.
  const auto idle_free = [this](int lambda) {
    double free = 0.0;
    for (const int n : lambdas_)
      if (lambda < n) free += gbps_per_lambda_;
    return free;
  };
  int cut = 0;
  for (int hi = radix_; cut < hi;) {
    const int mid = cut + (hi - cut) / 2;
    if (idle_free(mid) > kGbpsEpsilon)
      cut = mid + 1;
    else
      hi = mid;
  }
  words_ = (static_cast<std::size_t>(mcms_) + 63) / 64;
  row_bits_.assign(static_cast<std::size_t>(mcms_) * words_, 0);
  for (int s = 0; s < mcms_; ++s) {
    std::uint64_t* row = row_bits_.data() + static_cast<std::size_t>(s) * words_;
    set_run(row, 0, std::min(mcms_, cut - s));
    set_run(row, radix_ - s, std::min(mcms_, radix_ - s + cut));
    put_bit(row[s / 64], s % 64, false);
  }
  col_bits_ = row_bits_;
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
  for (std::size_t c = idx(src, dst); c < covered_.size(); c += pairs_) n += covered_[c];
  return n;
}

double WavelengthFabric::direct_capacity(int src, int dst) const {
  // scale == 1 multiplies by exactly 1.0, so healthy capacity is unchanged
  // bit for bit.
  return direct_lambdas(src, dst) * gbps_per_lambda_ * pair_scale(src, dst);
}

void WavelengthFabric::set_cell(std::size_t c, double value) {
  const double before = alloc_[c];
  alloc_[c] = value;
  used_ += value - before;
  if (before == 0.0 && value != 0.0) ++nonzero_cells_;
  if (before != 0.0 && value == 0.0) --nonzero_cells_;
  // A drained table reads exactly 0.0, not the rounding residue of the
  // changes that drained it (RackAllocator snaps its pools the same way).
  if (nonzero_cells_ == 0) used_ = 0.0;
}

void WavelengthFabric::refresh_free(int src, int dst) {
  const std::size_t pair = idx(src, dst);
  // The scale != 1 branch clamps at zero because reservations made before a
  // degradation may exceed the reduced capacity; the healthy branch keeps
  // the historical expression bit for bit (it can carry an epsilon-negative
  // residue that downstream arithmetic depends on byte-identically).
  const double scale = scale_.empty() ? 1.0 : scale_[pair];
  double free = 0.0;
  for (std::size_t c = pair; c < alloc_.size(); c += pairs_) {
    if (!covered_[c]) continue;
    free += scale == 1.0 ? gbps_per_lambda_ - alloc_[c]
                         : std::max(0.0, gbps_per_lambda_ * scale - alloc_[c]);
  }
  free_[pair] = free;
  const bool on = free > kGbpsEpsilon;
  put_bit(row_bits_[static_cast<std::size_t>(src) * words_ + dst / 64], dst % 64, on);
  put_bit(col_bits_[static_cast<std::size_t>(dst) * words_ + src / 64], src % 64, on);
}

double WavelengthFabric::allocated(int src, int dst) const {
  double total = 0.0;
  for (std::size_t c = idx(src, dst); c < alloc_.size(); c += pairs_) total += alloc_[c];
  return total;
}

double WavelengthFabric::allocate_direct(int src, int dst, double gbps) {
  const std::size_t pair = idx(src, dst);
  const double scale = pair_scale(src, dst);
  double granted = 0.0;
  for (std::size_t c = pair; c < alloc_.size() && gbps > granted; c += pairs_) {
    if (!covered_[c]) continue;
    const double used = alloc_[c];
    // Same clamping asymmetry as refresh_free: the scaled wavelength may
    // already hold more than its reduced capacity, which must grant zero,
    // never a negative take.
    const double avail = scale == 1.0
                             ? gbps_per_lambda_ - used
                             : std::max(0.0, gbps_per_lambda_ * scale - used);
    const double take = std::min(gbps - granted, avail);
    set_cell(c, used + take);
    granted += take;
  }
  refresh_free(src, dst);
  return granted;
}

void WavelengthFabric::release_direct(int src, int dst, double gbps) {
  // Refuse before touching any table, as RackAllocator refuses a double
  // free: a throwing release leaves the fabric exactly as it was.
  if (gbps > allocated(src, dst) + kGbpsEpsilon)
    throw std::logic_error("release_direct: released more than allocated");
  const std::size_t pair = idx(src, dst);
  for (std::size_t c = pair; c < alloc_.size() && gbps > 0.0; c += pairs_) {
    if (!covered_[c]) continue;
    const double give = std::min(gbps, alloc_[c]);
    set_cell(c, alloc_[c] - give);
    gbps -= give;
  }
  refresh_free(src, dst);
}

std::vector<double> WavelengthFabric::allocation_snapshot() const { return alloc_; }

void WavelengthFabric::check_pair(int src, int dst, double value,
                                  const char* who) const {
  if (src == dst || src < 0 || dst < 0 || src >= mcms_ || dst >= mcms_)
    throw std::invalid_argument(std::string(who) + ": bad pair");
  if (!(value >= 0.0 && value <= 1.0))  // NaN fails both
    throw std::invalid_argument(std::string(who) + ": value must be in [0,1]");
}

void WavelengthFabric::recompute_scale(int src, int dst) {
  // The live list is kept in ascending order, so this is the product over
  // the factors smallest first: the effective scale depends only on the SET
  // of live factors, never on push order, so two fault histories that leave
  // the same faults active read identical capacity bits.  No factors
  // multiplies nothing into 1.0 — the exact healthy scale.  A crashed
  // endpoint zeroes the pair, as a 0.0 factor would.
  const std::size_t pair = idx(src, dst);
  double scale = 0.0;
  if (!mcm_down(src) && !mcm_down(dst)) {
    scale = 1.0;
    if (!factors_.empty())
      for (const double f : factors_[pair]) scale *= f;
  }
  const double before = scale_[pair];
  if (scale == before) return;  // free entry and bits already match
  scale_[pair] = scale;
  refresh_free(src, dst);
  move_cells(before, scale, static_cast<std::size_t>(direct_lambdas(src, dst)));
}

void WavelengthFabric::move_cells(double from, double to, std::size_t cells) {
  if (cells == 0) return;
  if (classes_.empty()) classes_.push_back({1.0, covered_cells_});
  const auto find = [this](double scale) {
    return std::lower_bound(
        classes_.begin(), classes_.end(), scale,
        [](const ScaleClass& c, double s) { return c.scale < s; });
  };
  const auto old = find(from);
  if ((old->cells -= cells) == 0) classes_.erase(old);
  const auto it = find(to);
  if (it != classes_.end() && it->scale == to)
    it->cells += cells;
  else
    classes_.insert(it, {to, cells});
  double cap = 0.0;
  for (const ScaleClass& c : classes_)
    cap += static_cast<double>(c.cells) * (gbps_per_lambda_ * c.scale);
  capacity_ = cap;
}

void WavelengthFabric::set_mcm_down(int mcm, bool down) {
  if (mcm < 0 || mcm >= mcms_) throw std::invalid_argument("set_mcm_down: bad MCM");
  if (mcm_down(mcm) == down)
    throw std::logic_error(down ? "set_mcm_down: MCM is already down"
                                : "set_mcm_down: MCM is already up");
  if (scale_.empty()) scale_.assign(pairs_, 1.0);
  if (mcm_down_.empty()) mcm_down_.assign(static_cast<std::size_t>(mcms_), 0);
  mcm_down_[static_cast<std::size_t>(mcm)] = down;
  for (int other = 0; other < mcms_; ++other) {
    if (other == mcm) continue;
    recompute_scale(mcm, other);
    recompute_scale(other, mcm);
  }
}

void WavelengthFabric::push_pair_factor(int src, int dst, double factor) {
  check_pair(src, dst, factor, "push_pair_factor");
  if (scale_.empty()) scale_.assign(pairs_, 1.0);
  if (factors_.empty()) factors_.assign(pairs_, {});
  auto& live = factors_[idx(src, dst)];
  live.insert(std::upper_bound(live.begin(), live.end(), factor), factor);
  recompute_scale(src, dst);
}

void WavelengthFabric::pop_pair_factor(int src, int dst, double factor) {
  check_pair(src, dst, factor, "pop_pair_factor");
  if (factors_.empty())
    throw std::logic_error("pop_pair_factor: no factors live on the fabric");
  auto& live = factors_[idx(src, dst)];
  const auto it = std::lower_bound(live.begin(), live.end(), factor);
  if (it == live.end() || *it != factor)
    throw std::logic_error("pop_pair_factor: factor not live on this pair");
  live.erase(it);
  recompute_scale(src, dst);
}

}  // namespace photorack::net
