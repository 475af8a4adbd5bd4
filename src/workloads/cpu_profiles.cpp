#include "workloads/cpu_profiles.hpp"

#include <stdexcept>

namespace photorack::workloads {

namespace {

constexpr std::uint64_t MB = 1024ULL * 1024;

/// Deterministic per-benchmark seed (FNV-1a over the full name).
std::uint64_t seed_of(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h | 1;
}

PatternSpec streaming(double w, std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kStreaming;
  p.weight = w;
  p.region_bytes = region;
  return p;
}

PatternSpec strided(double w, std::uint64_t stride, double dep = 0.0,
                    std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kStrided;
  p.weight = w;
  p.stride_bytes = stride;
  p.dependent_fraction = dep;
  p.region_bytes = region;
  return p;
}

PatternSpec random_over(double w, std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kRandom;
  p.weight = w;
  p.region_bytes = region;
  return p;
}

PatternSpec pchase(double w, std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kPointerChase;
  p.weight = w;
  p.region_bytes = region;
  return p;
}

PatternSpec stencil(double w, int streams = 5, std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kStencil;
  p.weight = w;
  p.stencil_streams = streams;
  p.region_bytes = region;
  return p;
}

PatternSpec tiled(double w, std::uint64_t tile = 128 * 1024, int reuse = 16,
                  std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kTiled;
  p.weight = w;
  p.tile_bytes = tile;
  p.tile_reuse = reuse;
  p.region_bytes = region;
  return p;
}

PatternSpec zipf(double w, double s = 1.0, std::uint64_t region = 0) {
  PatternSpec p;
  p.kind = CpuPattern::kZipf;
  p.weight = w;
  p.zipf_s = s;
  p.region_bytes = region;
  return p;
}

CpuBenchmark bench(std::string suite, std::string name, std::string input,
                   std::uint64_t ws, double mem_fraction,
                   std::vector<PatternSpec> patterns) {
  CpuBenchmark b;
  b.suite = std::move(suite);
  b.name = std::move(name);
  b.input = std::move(input);
  b.trace.working_set = ws;
  b.trace.mem_fraction = mem_fraction;
  b.trace.patterns = std::move(patterns);
  b.trace.seed = seed_of(b.full_name());
  return b;
}

/// The full 61-run registry.  Working sets are positioned relative to the
/// 32 MiB model LLC: cache-resident profiles produce the paper's negligible
/// slowdowns (all of NAS, small PARSEC inputs), over-LLC sweeps produce the
/// large ones (streamcluster-large, NW), and hot/cold mixes fill the middle.
std::vector<CpuBenchmark> build_registry() {
  std::vector<CpuBenchmark> v;

  // ---------------- PARSEC (10 benchmarks x 3 inputs) ----------------
  // blackscholes: compute-bound option pricing; tiny streaming state.
  v.push_back(bench("PARSEC", "blackscholes", "small", 2 * MB, 0.12, {streaming(1.0)}));
  v.push_back(bench("PARSEC", "blackscholes", "medium", 6 * MB, 0.12, {streaming(1.0)}));
  v.push_back(bench("PARSEC", "blackscholes", "large", 16 * MB, 0.12, {streaming(1.0)}));

  // bodytrack: particle-filter vision; mostly tiled reuse, growing frames.
  v.push_back(bench("PARSEC", "bodytrack", "small", 36 * MB, 0.20,
                    {tiled(0.96), streaming(0.04)}));
  v.push_back(bench("PARSEC", "bodytrack", "medium", 48 * MB, 0.20,
                    {tiled(0.92), streaming(0.08)}));
  v.push_back(bench("PARSEC", "bodytrack", "large", 72 * MB, 0.20,
                    {tiled(0.85), streaming(0.15)}));

  // canneal: simulated annealing over a netlist; pointer-heavy and large.
  v.push_back(bench("PARSEC", "canneal", "small", 48 * MB, 0.22,
                    {pchase(0.06), random_over(0.05), zipf(0.89, 1.0, 8 * MB)}));
  v.push_back(bench("PARSEC", "canneal", "medium", 64 * MB, 0.22,
                    {pchase(0.12), random_over(0.08), zipf(0.80, 1.0, 8 * MB)}));
  v.push_back(bench("PARSEC", "canneal", "large", 128 * MB, 0.22,
                    {pchase(0.12), random_over(0.08), zipf(0.80, 1.0, 8 * MB)}));

  // dedup: pipelined compression; hash-table randomness over growing sets.
  v.push_back(bench("PARSEC", "dedup", "small", 48 * MB, 0.22,
                    {random_over(0.04), zipf(0.96, 0.9, 6 * MB)}));
  v.push_back(bench("PARSEC", "dedup", "medium", 64 * MB, 0.22,
                    {random_over(0.06), zipf(0.94, 0.9, 6 * MB)}));
  v.push_back(bench("PARSEC", "dedup", "large", 96 * MB, 0.22,
                    {random_over(0.07), zipf(0.93, 0.9, 6 * MB)}));

  // ferret: content-based search; skewed table lookups.
  v.push_back(bench("PARSEC", "ferret", "small", 40 * MB, 0.22,
                    {zipf(0.95, 1.05, 6 * MB), random_over(0.05)}));
  v.push_back(bench("PARSEC", "ferret", "medium", 56 * MB, 0.22,
                    {zipf(0.92, 1.05, 6 * MB), random_over(0.08)}));
  v.push_back(bench("PARSEC", "ferret", "large", 64 * MB, 0.22,
                    {zipf(0.90, 1.05, 6 * MB), random_over(0.10)}));

  // fluidanimate: SPH fluid; stencil sweeps over particle grids.
  v.push_back(bench("PARSEC", "fluidanimate", "small", 40 * MB, 0.22,
                    {stencil(0.06), tiled(0.94)}));
  v.push_back(bench("PARSEC", "fluidanimate", "medium", 64 * MB, 0.22,
                    {stencil(0.12), tiled(0.88)}));
  v.push_back(bench("PARSEC", "fluidanimate", "large", 80 * MB, 0.22,
                    {stencil(0.25), tiled(0.75)}));

  // freqmine: FP-growth mining; hot tree with a cold fringe.
  v.push_back(bench("PARSEC", "freqmine", "small", 36 * MB, 0.25,
                    {zipf(0.98, 1.1, 8 * MB), random_over(0.02)}));
  v.push_back(bench("PARSEC", "freqmine", "medium", 40 * MB, 0.25,
                    {zipf(0.97, 1.1, 8 * MB), random_over(0.03)}));
  v.push_back(bench("PARSEC", "freqmine", "large", 48 * MB, 0.25,
                    {zipf(0.96, 1.1, 8 * MB), random_over(0.04)}));

  // streamcluster: online clustering; repeatedly scans the point set.  The
  // paper calls this out: small/medium fit the LLC (<0.5% miss rate),
  // large does not (>60% miss rate, ~57% slowdown).  The hot centre table
  // (random over 2 MB) is what keeps the large-input LLC miss *rate* near
  // 60% rather than ~100%: it misses L2 but is re-touched fast enough to
  // stay LLC-resident under the cold sweep.
  v.push_back(bench("PARSEC", "streamcluster", "small", 1536 * 1024, 0.30,
                    {streaming(0.93), random_over(0.07, 768 * 1024)}));
  v.push_back(bench("PARSEC", "streamcluster", "medium", 8 * MB, 0.30,
                    {streaming(0.93), random_over(0.07, 2 * MB)}));
  v.push_back(bench("PARSEC", "streamcluster", "large", 128 * MB, 0.30,
                    {streaming(0.95), random_over(0.05, 2 * MB)}));

  // swaptions: Monte-Carlo pricing; compute-bound.
  v.push_back(bench("PARSEC", "swaptions", "small", 1 * MB, 0.10, {streaming(1.0)}));
  v.push_back(bench("PARSEC", "swaptions", "medium", 2 * MB, 0.10, {streaming(1.0)}));
  v.push_back(bench("PARSEC", "swaptions", "large", 4 * MB, 0.10, {streaming(1.0)}));

  // x264: video encode; tiled motion search over growing frames.
  v.push_back(bench("PARSEC", "x264", "small", 40 * MB, 0.18,
                    {streaming(0.05), tiled(0.95, 256 * 1024)}));
  v.push_back(bench("PARSEC", "x264", "medium", 56 * MB, 0.18,
                    {streaming(0.12), tiled(0.88, 256 * 1024)}));
  v.push_back(bench("PARSEC", "x264", "large", 64 * MB, 0.18,
                    {streaming(0.30), tiled(0.70, 256 * 1024)}));

  // ---------------- NAS (8 benchmarks x 3 classes) ----------------
  // The paper finds NAS "negligibly affected" for A/B/C: these kernels are
  // blocked/stenciled well enough that the model LLC absorbs them.
  auto nas = [&](const char* name, std::uint64_t a, std::uint64_t b, std::uint64_t c,
                 double mem, std::vector<PatternSpec> pats) {
    v.push_back(bench("NAS", name, "A", a, mem, pats));
    v.push_back(bench("NAS", name, "B", b, mem, pats));
    v.push_back(bench("NAS", name, "C", c, mem, std::move(pats)));
  };
  nas("bt", 8 * MB, 14 * MB, 22 * MB, 0.25, {tiled(1.0)});
  nas("cg", 10 * MB, 16 * MB, 26 * MB, 0.30, {random_over(0.5), tiled(0.5)});
  nas("ep", 1 * MB, 2 * MB, 3 * MB, 0.08, {streaming(1.0)});
  nas("ft", 8 * MB, 16 * MB, 24 * MB, 0.30, {streaming(0.5), strided(0.5, 2048)});
  nas("is", 12 * MB, 20 * MB, 28 * MB, 0.25, {random_over(0.6), streaming(0.4)});
  nas("lu", 8 * MB, 14 * MB, 22 * MB, 0.25, {tiled(0.8), stencil(0.2)});
  nas("mg", 10 * MB, 18 * MB, 26 * MB, 0.28, {stencil(1.0, 7)});
  nas("sp", 8 * MB, 16 * MB, 24 * MB, 0.25, {tiled(0.7), stencil(0.3)});

  // ---------------- Rodinia (7 benchmarks, default inputs) ----------------
  // backprop: dense layer sweeps, mostly resident.
  v.push_back(bench("Rodinia", "backprop", "default", 48 * MB, 0.22,
                    {streaming(0.03), tiled(0.97)}));
  // bfs: frontier expansion over a graph bigger than the LLC.
  v.push_back(bench("Rodinia", "bfs", "default", 40 * MB, 0.25,
                    {pchase(0.03), streaming(0.04), zipf(0.93, 1.0, 8 * MB)}));
  // hotspot: 2D thermal stencil, resident grid.
  v.push_back(bench("Rodinia", "hotspot", "default", 8 * MB, 0.25, {stencil(1.0)}));
  // kmeans: repeated sweeps over a feature matrix slightly beyond the LLC.
  v.push_back(bench("Rodinia", "kmeans", "default", 48 * MB, 0.30,
                    {streaming(0.05), tiled(0.95)}));
  // lud: blocked dense factorization, resident.
  v.push_back(bench("Rodinia", "lud", "default", 12 * MB, 0.25, {tiled(1.0)}));
  // nw: Needleman-Wunsch DP wavefront: line-stride sweeps of a large score
  // table with a partially serial carried dependence — the paper's worst
  // case (~79% in-order slowdown, very high LLC miss rate).  The anti-
  // diagonal wavefront leaves most misses independent (dependence ~10%),
  // which keeps the OOO slowdown in the same regime as the in-order one.
  v.push_back(bench("Rodinia", "nw", "default", 96 * MB, 0.46,
                    {strided(0.95, 64, 0.10), pchase(0.05)}));
  // srad: speckle-reducing stencil over an image beyond the LLC.
  v.push_back(bench("Rodinia", "srad", "default", 40 * MB, 0.28,
                    {stencil(0.10), tiled(0.90)}));

  return v;
}

}  // namespace

const std::vector<CpuBenchmark>& cpu_benchmarks() {
  static const std::vector<CpuBenchmark> kRegistry = build_registry();
  return kRegistry;
}

std::vector<CpuBenchmark> benchmarks_of_suite(const std::string& suite) {
  std::vector<CpuBenchmark> out;
  for (const auto& b : cpu_benchmarks())
    if (b.suite == suite) out.push_back(b);
  if (out.empty()) throw std::out_of_range("unknown suite: " + suite);
  return out;
}

std::vector<std::string> rodinia_cpu_gpu_intersection() {
  return {"backprop", "bfs", "hotspot", "kmeans", "lud", "nw", "srad"};
}

}  // namespace photorack::workloads
