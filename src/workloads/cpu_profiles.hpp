#pragma once

#include <string>
#include <vector>

#include "workloads/generators.hpp"

namespace photorack::workloads {

/// One benchmark x input-size combination of the paper's CPU study
/// (§VI-B1): PARSEC 3.1 with small/medium/large inputs, NAS with classes
/// A/B/C, Rodinia with its default inputs — 25 distinct benchmarks, 61 runs.
struct CpuBenchmark {
  std::string suite;  // "PARSEC" | "NAS" | "Rodinia"
  std::string name;
  std::string input;  // "small"/"medium"/"large" | "A"/"B"/"C" | "default"
  TraceConfig trace;

  [[nodiscard]] std::string full_name() const { return suite + "/" + name + "/" + input; }
};

/// All 61 benchmark runs.  Profiles are synthetic-trace reconstructions:
/// working sets, pattern mixes and memory intensities are chosen to match
/// each benchmark's published memory behaviour, standing in for the
/// instruction traces the paper simulated.
[[nodiscard]] const std::vector<CpuBenchmark>& cpu_benchmarks();

/// Subset helpers used by the figures.
[[nodiscard]] std::vector<CpuBenchmark> benchmarks_of_suite(const std::string& suite);
[[nodiscard]] std::vector<CpuBenchmark> benchmarks_of_input(const std::string& suite,
                                                            const std::string& input);

/// The Rodinia benchmarks that also exist as GPU applications (Fig 11's
/// CPU-GPU intersection).
[[nodiscard]] std::vector<std::string> rodinia_cpu_gpu_intersection();

}  // namespace photorack::workloads
