#pragma once

#include "config/param_registry.hpp"
#include "rack/rack_builder.hpp"

namespace photorack::cosim {
struct CosimConfig;  // cosim/rack_cosim.hpp
}

namespace photorack::config {

/// Top-level knobs that pick between whole designs rather than configure
/// one struct; registered as the "system" section.
struct SystemParams {
  rack::FabricKind fabric = rack::FabricKind::kParallelAwgrs;
};

/// The process-wide parameter space: every layer's config struct registered
/// as a section of typed, documented, validated paths.  Built once on first
/// use; see bindings.cpp for the per-section knob tables.
[[nodiscard]] const ParamRegistry& registry();

/// The co-simulation config a tree resolves to: the "cosim" section with
/// its fabric, fault and ML parts built from the "net", "fault" and "ml"
/// sections.
[[nodiscard]] cosim::CosimConfig cosim_config(const ConfigTree& tree);

}  // namespace photorack::config
