#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phot/units.hpp"
#include "rack/rack_builder.hpp"
#include "sim/time.hpp"

namespace photorack::net {

/// Gb/s at or below which an amount counts as nothing.  A pair is free when
/// its free_direct() exceeds this, and routing treats a demand, placement or
/// stranded residue at or under it as zero.
inline constexpr double kGbpsEpsilon = 1e-9;

/// Geometry of a co-sim-scale all-pairs wavelength fabric: `mcms` endpoints
/// where every (src, dst) pair gets `lambdas_per_pair` dedicated DWDM
/// wavelengths of `gbps_per_wavelength` each, with allocation state
/// disseminated by piggybacked telemetry every `piggyback_interval`.
/// Registered as the "net" section of the config registry, so campaigns
/// and `--set net.gbps_per_wavelength=32` style overrides address it
/// directly; the rack co-simulation builds its fabric from this.
struct FabricSliceConfig {
  int mcms = 24;
  int lambdas_per_pair = 1;              // direct wavelengths per (src,dst) pair
  phot::Gbps gbps_per_wavelength{25.0};  // per-wavelength rate (Table III)
  sim::TimePs piggyback_interval = 10 * sim::kPsPerUs;
};

/// The slice's AWGR plan: `lambdas_per_pair` parallel AWGRs of radix `mcms`,
/// every port fully populated, so each (src,dst) pair owns exactly
/// `lambdas_per_pair` direct wavelengths — the §V-B case (A) topology shrunk
/// to the slice of the rack one job mix actually stresses.
[[nodiscard]] rack::AwgrFabricPlan slice_awgr_plan(const FabricSliceConfig& slice);

/// Wavelength-level state of the parallel-AWGR fabric (case (A) of §V-B).
///
/// Each of the `parallel_awgrs` AWGRs dedicates exactly one wavelength to
/// every (source MCM, destination MCM) pair it covers; a wavelength carries
/// `gbps_per_wavelength` and may be multiplexed by several flows (§IV-A).
/// The fabric tracks allocated Gb/s per (awgr, src, dst) and exposes the
/// occupancy queries that indirect routing needs.
///
/// Derived state is kept current rather than rescanned.  Every call that
/// changes a pair's allocation or scale rewrites that pair's entry of a flat
/// free table, so free_direct() is one load, and the pair's bit in two
/// bitsets of `bit_words()` words per MCM: row `src` has bit `mid` set when
/// src->mid is free, column `dst` has bit `mid` set when mid->dst is free
/// (both "free > kGbpsEpsilon").  The router ANDs a row with a column to
/// find intermediates, and a piggyback refresh copies the columns.
/// utilization() divides a running used total by a cached capacity total.
class WavelengthFabric {
 public:
  WavelengthFabric(int mcms, const rack::AwgrFabricPlan& plan);

  [[nodiscard]] int mcms() const { return mcms_; }
  [[nodiscard]] int parallel_awgrs() const { return static_cast<int>(lambdas_.size()); }
  [[nodiscard]] double gbps_per_wavelength() const { return gbps_per_lambda_; }

  /// True when AWGR `a` gives `src` a dedicated wavelength to `dst`.
  /// Partially-filled ports (fewer wavelengths than the AWGR radix) cover
  /// the cyclically-first subset of destinations.
  [[nodiscard]] bool covers(int awgr, int src, int dst) const;

  /// Number of direct wavelengths between a pair (across all AWGRs).
  [[nodiscard]] int direct_lambdas(int src, int dst) const;

  /// Total / free direct capacity between a pair, in Gb/s.
  [[nodiscard]] double direct_capacity(int src, int dst) const;
  [[nodiscard]] double free_direct(int src, int dst) const { return free_[idx(src, dst)]; }
  [[nodiscard]] double allocated(int src, int dst) const;

  /// 64-bit words per bitset row or column: one bit per MCM.
  [[nodiscard]] std::size_t bit_words() const { return words_; }
  /// Bit `mid` set when free_direct(src, mid) > kGbpsEpsilon.
  [[nodiscard]] std::span<const std::uint64_t> free_row(int src) const {
    return {row_bits_.data() + static_cast<std::size_t>(src) * words_, words_};
  }
  /// Bit `mid` set when free_direct(mid, dst) > kGbpsEpsilon.
  [[nodiscard]] std::span<const std::uint64_t> free_col(int dst) const {
    return {col_bits_.data() + static_cast<std::size_t>(dst) * words_, words_};
  }
  /// Every column, column `dst` at [dst * bit_words()]: what a piggyback
  /// refresh copies.
  [[nodiscard]] const std::vector<std::uint64_t>& free_cols() const { return col_bits_; }

  /// Reserve up to `gbps` of direct capacity; returns the amount actually
  /// reserved (fills AWGRs in index order — deterministic).
  double allocate_direct(int src, int dst, double gbps);

  /// Release previously reserved direct capacity (same ordering).  Throws
  /// std::logic_error, before changing any state, when `gbps` exceeds what
  /// the pair holds.
  void release_direct(int src, int dst, double gbps);

  /// Flat copy of every AWGR's per-pair allocation table (awgr-major), for
  /// bit-exact state comparison: a phase loop that opens and then closes a
  /// flow set must leave this snapshot unchanged.
  [[nodiscard]] std::vector<double> allocation_snapshot() const;

  /// Aggregate utilization over all covered pairs.  Normally in [0,1];
  /// under fault degradation existing reservations may transiently exceed
  /// the scaled capacity.  O(1): a running used total over a capacity total
  /// that is summed again only after a pair factor changed.  Refreshing
  /// that cache writes the fabric, so concurrent callers need a lock.
  [[nodiscard]] double utilization() const;

  // --- fault hooks (src/fault): per-pair capacity scaling ---
  //
  // scale = 1 is healthy, 0 a dead pair (endpoint crash-stop or link cut),
  // anything between a degraded laser.  Scaling changes CAPACITY only:
  // free_direct/allocate_direct see `capacity * scale` (clamped at the
  // already-allocated amount), release_direct still returns exactly what
  // was reserved.  The scale table is allocated lazily on the first
  // push_pair_factor call, and every scaled expression collapses to the
  // historical arithmetic when scale == 1 — a fault-free fabric stays
  // byte-identical to one built before this hook existed.

  // Faults COMPOSE: several independent faults (an MCM crash, a link cut, a
  // degraded comb laser) can degrade the same directed pair at once, and
  // each repair must undo exactly its own fault's contribution.  An
  // absolute setter cannot express that — repairing one fault would clobber
  // the scale another still-active fault imposed — so each fault pushes a
  // multiplicative factor and pops the same value on repair.  The effective
  // scale is the product of the pair's live factors, kept in ascending order
  // and multiplied smallest first, so it is independent of the push
  // sequence, and an empty factor list restores exactly 1.0 (bit-exact
  // healthy arithmetic).

  /// Contribute one fault's capacity factor to the directed pair; throws
  /// std::invalid_argument outside [0,1] or for a bad pair.
  void push_pair_factor(int src, int dst, double factor);
  /// Remove one previously pushed factor (matched by value); throws
  /// std::logic_error when no such factor is live on the pair.
  void pop_pair_factor(int src, int dst, double factor);

  [[nodiscard]] double pair_scale(int src, int dst) const {
    return scale_.empty() ? 1.0 : scale_[idx(src, dst)];
  }

 private:
  int mcms_;
  int radix_;
  double gbps_per_lambda_;
  std::vector<int> lambdas_;             // wavelengths per port, per AWGR
  std::size_t pairs_ = 0;                // mcms * mcms
  // Per-(awgr, pair) tables, awgr-major: cell a*pairs + src*mcms + dst.
  std::vector<double> alloc_;            // allocated Gb/s
  std::vector<std::uint8_t> covered_;    // covers(a, src, dst)
  std::vector<double> free_;             // [src*mcms+dst] free_direct value
  std::size_t words_ = 0;                // bitset words per row / column
  std::vector<std::uint64_t> row_bits_;  // [src*words + mid/64]: src->mid free
  std::vector<std::uint64_t> col_bits_;  // [dst*words + mid/64]: mid->dst free
  std::vector<double> scale_;            // per-pair effective multiplier (lazy)
  std::vector<std::vector<double>> factors_;  // per-pair live fault factors, ascending (lazy)
  mutable double capacity_ = 0.0;        // Σ scaled capacity of covered cells
  mutable bool capacity_dirty_ = true;   // a pair factor changed since the sum
  double used_ = 0.0;                    // running Σ of every cell's change
  std::size_t nonzero_cells_ = 0;        // cells of alloc_ holding anything

  void check_pair(int src, int dst, double value, const char* who) const;
  void recompute_scale(int src, int dst);
  /// Rewrite the pair's free_ entry from its cells, and its row and column
  /// bits from that value; after construction, the only writer of free_ and
  /// of both bitsets.
  void refresh_free(int src, int dst);
  /// Store `value` in cell `c`, carrying its change into used_; after
  /// construction, the only writer of alloc_.
  void set_cell(std::size_t c, double value);

  [[nodiscard]] std::size_t idx(int src, int dst) const {
    return static_cast<std::size_t>(src) * mcms_ + dst;
  }
};

}  // namespace photorack::net
