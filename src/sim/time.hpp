#pragma once

#include <cstdint>

namespace photorack::sim {

/// Simulation time in integer picoseconds.  Integer time keeps event ordering
/// exact and results bit-reproducible across platforms and optimization
/// levels; one picosecond resolves every clock and link rate in this study.
using TimePs = std::int64_t;

inline constexpr TimePs kPsPerNs = 1'000;
inline constexpr TimePs kPsPerUs = 1'000'000;
inline constexpr TimePs kPsPerMs = 1'000'000'000;
inline constexpr TimePs kPsPerS = 1'000'000'000'000;

[[nodiscard]] constexpr double to_ns(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerNs);
}

[[nodiscard]] constexpr double to_us(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerUs);
}

[[nodiscard]] constexpr double to_s(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerS);
}

}  // namespace photorack::sim
