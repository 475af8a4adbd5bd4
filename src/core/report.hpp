#pragma once

#include <iosfwd>
#include <string>

namespace photorack::core {

/// Shared bench-output helpers: a titled banner and a "paper vs measured"
/// line so every bench binary reports reproduction status uniformly.
void print_banner(std::ostream& os, const std::string& title,
                  const std::string& paper_ref);

/// e.g. check_line(os, "average CPU slowdown (in-order)", 0.15, measured)
/// prints both values and an `[ok]` or `[drift]` marker at the given
/// relative tolerance.
void check_line(std::ostream& os, const std::string& what, double paper, double measured,
                double rel_tolerance = 0.5);

}  // namespace photorack::core
