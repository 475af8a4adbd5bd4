// Config-registry suite: strict value parsing, EnumCodec folding, the
// path-addressable registry (lookup, suggestions, typed builds,
// validation), ConfigTree resolution/serialization, manifest JSON, and the
// round-trip contracts the redesign rests on: for every registered
// section, serialize(resolve(serialize(defaults))) is byte-identical, and
// random valid override sets resolve without throwing and re-serialize
// canonically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "config/bindings.hpp"
#include "config/manifest.hpp"
#include "config/param_registry.hpp"
#include "config/value_codec.hpp"
#include "core/rack_system.hpp"
#include "cosim/rack_cosim.hpp"
#include "cpusim/core.hpp"
#include "cpusim/runner.hpp"
#include "disagg/allocator.hpp"
#include "gpusim/gpu_config.hpp"
#include "net/fabric.hpp"
#include "phot/power.hpp"
#include "rack/rack_builder.hpp"
#include "sim/rng.hpp"
#include "sim/table.hpp"

namespace photorack {
namespace {

// ---------------------------------------------------------------------------
// Strict scalar parsing (the satellite contract: no trailing garbage).
// ---------------------------------------------------------------------------

TEST(StrictParse, DoubleAcceptsExactNumbersOnly) {
  EXPECT_DOUBLE_EQ(config::parse_double("35"), 35.0);
  EXPECT_DOUBLE_EQ(config::parse_double("-1.5e-3"), -1.5e-3);
  EXPECT_DOUBLE_EQ(config::parse_double(".5"), 0.5);
  for (const char* bad : {"35ns", "", " 5", "5 ", "0x1f", "inf", "nan", "1,5", "--3",
                          "-nan", "+nan", "-nan(abc)", "+inf", "-inf", "1e999"})
    EXPECT_THROW(config::parse_double(bad), std::invalid_argument) << bad;
}

TEST(StrictParse, IntegersRejectPartialParsesAndWraps) {
  EXPECT_EQ(config::parse_uint64("12345"), 12345u);
  EXPECT_EQ(config::parse_int64("-12"), -12);
  for (const char* bad : {"35ns", "", " 5", "3.5", "0x10", "-32", "+5"})
    EXPECT_THROW(config::parse_uint64(bad), std::invalid_argument) << bad;
  for (const char* bad : {"35ns", "", "3.5", "12 "})
    EXPECT_THROW(config::parse_int64(bad), std::invalid_argument) << bad;
}

TEST(StrictParse, BoolAcceptsCanonicalSpellings) {
  EXPECT_TRUE(config::parse_bool("true"));
  EXPECT_TRUE(config::parse_bool("1"));
  EXPECT_FALSE(config::parse_bool("false"));
  EXPECT_FALSE(config::parse_bool("0"));
  for (const char* bad : {"True", "yes", "on", ""})
    EXPECT_THROW(config::parse_bool(bad), std::invalid_argument) << bad;
}

// ---------------------------------------------------------------------------
// EnumCodec: the one definition of each enum's spelling.
// ---------------------------------------------------------------------------

TEST(EnumCodecs, CanonicalCodecsRoundTrip) {
  EXPECT_EQ(disagg::allocation_policy_codec().parse("disagg"),
            disagg::AllocationPolicy::kDisaggregated);
  EXPECT_EQ(disagg::allocation_policy_codec().name(
                disagg::AllocationPolicy::kStaticNodes),
            "static");
  EXPECT_EQ(cpusim::core_kind_codec().parse("ooo"), cpusim::CoreKind::kOutOfOrder);
  EXPECT_EQ(cpusim::core_kind_codec().parse("accel"),
            cpusim::CoreKind::kDecoupledAccelerator);
  EXPECT_EQ(rack::fabric_kind_codec().parse("electronic"),
            rack::FabricKind::kElectronicSwitches);
  EXPECT_TRUE(cosim::feedback_codec().parse("closed"));
  EXPECT_FALSE(cosim::feedback_codec().parse("open"));
  EXPECT_EQ(cosim::feedback_codec().name(true), "closed");
}

TEST(EnumCodecs, ParseErrorListsChoices) {
  try {
    (void)cpusim::core_kind_codec().parse("superscalar");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("inorder|ooo|accel"), std::string::npos)
        << e.what();
  }
  // The legacy wrappers route through the codec.
  EXPECT_THROW(disagg::parse_allocation_policy("dynamic"), std::invalid_argument);
  EXPECT_EQ(std::string(disagg::to_string(disagg::AllocationPolicy::kDisaggregated)),
            "disagg");
}

// ---------------------------------------------------------------------------
// Registry lookup, suggestions, typed builds.
// ---------------------------------------------------------------------------

TEST(Registry, KnowsEveryLayerSection) {
  const auto& reg = config::registry();
  for (const char* name :
       {"system", "rack", "mcm", "cpusim", "gpusim", "net", "cosim", "cluster",
        "phot"})
    EXPECT_NE(reg.find_section(name), nullptr) << name;
  EXPECT_GE(reg.params().size(), 60u);
}

TEST(Registry, UnknownPathSuggestsNearMisses) {
  try {
    (void)config::registry().at("cpusim.dram.extra_n");
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("cpusim.dram.extra_ns"), std::string::npos)
        << e.what();
  }
  // Forgetting the section prefix is the common slip; the bare leaf name
  // must surface the qualified path.
  try {
    (void)config::registry().at("warmup");
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("cpusim.warmup"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, BuildAppliesNestedOverridesInOrder) {
  const auto cfg = config::registry().build<cpusim::SimConfig>(
      "cpusim", {{"cpusim.core.kind", "ooo"},
                 {"cpusim.dram.extra_ns", "25"},
                 {"cpusim.dram.extra_ns", "85"},  // later override wins
                 {"cpusim.l1.ways", "4"}});
  EXPECT_EQ(cfg.core.kind, cpusim::CoreKind::kOutOfOrder);
  EXPECT_DOUBLE_EQ(cfg.dram.extra_ns, 85.0);
  EXPECT_EQ(cfg.hierarchy.l1.ways, 4);
}

TEST(Registry, BuildRejectsTypeMismatchAndForeignPaths) {
  EXPECT_THROW((void)config::registry().build<gpusim::GpuConfig>("cpusim"),
               std::logic_error);
  EXPECT_THROW((void)config::registry().build<cpusim::SimConfig>(
                   "cpusim", {{"gpusim.sms", "4"}}),
               std::out_of_range);
}

TEST(Registry, IntKnobsRejectWrappingValues) {
  // 2^32+1 would wrap to int 1 and sail through the [1, 4096] range check;
  // the manifest would then record a value the run never used.
  EXPECT_THROW((void)config::registry().build<rack::RackConfig>(
                   "rack", {{"rack.nodes", "4294967297"}}),
               std::invalid_argument);
  EXPECT_THROW((void)config::registry().build<rack::RackConfig>(
                   "rack", {{"rack.nodes", "-4294967295"}}),
               std::invalid_argument);
}

TEST(Registry, RangeValidationThrowsBeforeMutation) {
  EXPECT_THROW((void)config::registry().build<rack::RackConfig>(
                   "rack", {{"rack.nodes", "0"}}),
               std::out_of_range);
  EXPECT_THROW((void)config::registry().build<cosim::CosimConfig>(
                   "cosim", {{"cosim.idle_power_fraction", "1.5"}}),
               std::out_of_range);
}

TEST(Registry, ScaledBindingsConvertUnits) {
  const auto cfg = config::registry().build<cosim::CosimConfig>(
      "cosim", {{"cosim.horizon_ms", "40"}, {"cosim.duration_ms", "2.5"}});
  EXPECT_EQ(cfg.sim_time, 40 * sim::kPsPerMs);
  EXPECT_EQ(cfg.mean_duration, static_cast<sim::TimePs>(2.5 * sim::kPsPerMs));
  const auto net = config::registry().build<net::FabricSliceConfig>(
      "net", {{"net.gbps_per_wavelength", "32"}});
  EXPECT_DOUBLE_EQ(net.gbps_per_wavelength.value, 32.0);
}

// ---------------------------------------------------------------------------
// ConfigTree: eager validation, deterministic serialization.
// ---------------------------------------------------------------------------

TEST(Tree, SetValidatesEagerly) {
  config::ConfigTree tree(config::registry());
  tree.set("rack.nodes", "64");
  EXPECT_EQ(tree.value("rack.nodes"), "64");
  EXPECT_EQ(tree.value("mcm.fibers"), "32");  // untouched -> default
  EXPECT_THROW(tree.set("rack.nodez", "64"), std::out_of_range);
  EXPECT_THROW(tree.set("rack.nodes", "64x"), std::invalid_argument);
  EXPECT_THROW(tree.set("rack.nodes", "100000"), std::out_of_range);
  EXPECT_EQ(tree.build<rack::RackConfig>("rack").nodes, 64);
}

TEST(Tree, JsonIsSortedAndOrderInsensitive) {
  config::ConfigTree a(config::registry()), b(config::registry());
  a.set("rack.nodes", "64");
  a.set("mcm.fibers", "16");
  b.set("mcm.fibers", "16");
  b.set("rack.nodes", "64");
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"rack.nodes\":\"64\""), std::string::npos);
  // Sorted by path: mcm.* precedes rack.*.
  EXPECT_LT(a.to_json().find("\"mcm.fibers\""), a.to_json().find("\"rack.nodes\""));
}

/// A rack system from a resolved tree: fabric from "system.fabric", the
/// rack/MCM geometry from "rack"/"mcm", power assumptions from "phot".
core::RackSystem rack_system(const config::ConfigTree& tree) {
  return core::RackSystem(tree.build<config::SystemParams>("system").fabric,
                          tree.build<rack::RackConfig>("rack"),
                          tree.build<rack::McmConfig>("mcm"),
                          tree.build<phot::PhotonicPowerConfig>("phot"));
}

TEST(Tree, BuildsARackSystemEndToEnd) {
  // An ordered --set list IS a design.
  config::ConfigTree electronic_tree(config::registry());
  electronic_tree.set("system.fabric", "electronic");
  EXPECT_DOUBLE_EQ(rack_system(electronic_tree).added_memory_latency_ns(), 85.0);

  config::ConfigTree small_tree(config::registry());
  small_tree.set("rack.nodes", "64");
  const core::RackSystem small_rack = rack_system(small_tree);
  EXPECT_DOUBLE_EQ(small_rack.added_memory_latency_ns(), 35.0);
  EXPECT_LT(small_rack.total_mcms(), 350);

  // phot.* assumption knobs reach power_overhead() through the tree.
  config::ConfigTree cheap_tree(config::registry());
  cheap_tree.set("phot.transceiver_pair_energy", "0.275");
  const double half = rack_system(cheap_tree).power_overhead().transceivers.value;
  const double full = rack_system(config::ConfigTree(config::registry()))
                          .power_overhead()
                          .transceivers.value;
  EXPECT_NEAR(half * 2.0, full, 1e-6);
}

// ---------------------------------------------------------------------------
// Round-trip contracts over EVERY registered section.
// ---------------------------------------------------------------------------

TEST(RoundTrip, SerializeResolveSerializeIsByteIdenticalForEverySection) {
  for (const auto& section : config::registry().sections()) {
    const auto obj = section->make_default();
    // resolve(serialize(defaults)): feed every default string back through
    // its own parser...
    for (const auto& p : section->params()) p.apply(obj.get(), p.default_value);
    // ...and the re-serialization must not move a byte.
    for (const auto& p : section->params())
      EXPECT_EQ(p.read(obj.get()), p.default_value) << p.path;
  }
}

/// Draw a random valid value for a param from its declared type/range.
std::string random_valid_value(const config::ParamInfo& p, sim::Rng& rng) {
  if (p.numeric) {
    const double lo = std::isinf(p.bounds.lo) ? 0.0 : p.bounds.lo;
    const double hi = std::isinf(p.bounds.hi) ? lo + 1000.0 : p.bounds.hi;
    // A range with no integer in it (a strict fraction like (0,1)) can only
    // be a double-typed param: draw a fixed-precision decimal inside it.
    if (std::ceil(lo) > hi) return std::to_string(lo + 0.5 * (hi - lo));
    // Integral values satisfy every numeric codec (int, uint64, double,
    // unit-wrapped); ceil(lo) keeps fractional lower bounds in range, and
    // plain decimal formatting avoids scientific notation the integer
    // codecs rightly reject.
    return std::to_string(
        static_cast<long long>(std::floor(rng.uniform(std::ceil(lo), hi))));
  }
  if (p.type == "bool") return rng.bernoulli(0.5) ? "true" : "false";
  if (p.type == "string")
    return "trace_" + std::to_string(rng.below(1000)) + ".txt";
  if (p.type.rfind("enum(", 0) == 0) {
    // "enum(a|b|c)" -> pick one spelling.
    std::vector<std::string> choices;
    std::string cur;
    for (std::size_t i = 5; i + 1 < p.type.size(); ++i) {
      if (p.type[i] == '|') {
        choices.push_back(cur);
        cur.clear();
      } else {
        cur += p.type[i];
      }
    }
    choices.push_back(cur);
    return choices[rng.below(choices.size())];
  }
  ADD_FAILURE() << "unhandled param type " << p.type << " for " << p.path;
  return p.default_value;
}

TEST(RoundTrip, RandomValidOverrideSetsResolveAndReserializeCanonically) {
  sim::Rng rng(20260730);
  const auto& reg = config::registry();
  for (int trial = 0; trial < 50; ++trial) {
    for (const auto& section : reg.sections()) {
      const auto obj = section->make_default();
      for (const auto& p : section->params()) {
        if (!rng.bernoulli(0.5)) continue;
        const std::string value = random_valid_value(p, rng);
        ASSERT_NO_THROW(p.apply(obj.get(), value)) << p.path << "=" << value;
        // Canonical fixpoint: reading back and re-applying must not drift.
        const std::string read_back = p.read(obj.get());
        ASSERT_NO_THROW(p.apply(obj.get(), read_back)) << p.path << "=" << read_back;
        EXPECT_EQ(p.read(obj.get()), read_back) << p.path;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Manifest: deterministic, valid JSON, carries the full tree.
// ---------------------------------------------------------------------------

/// Minimal recursive-descent JSON validator — enough to guarantee strict
/// consumers can parse a manifest (CI additionally runs it through
/// python3 -m json.tool).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    return number_or_literal();
  }
  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
        continue;
      }
      if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool number_or_literal() {
    const std::size_t start = i_;
    while (i_ < s_.size() && std::string("-+.eE0123456789truefalsnl").find(s_[i_]) !=
                                 std::string::npos)
      ++i_;
    return i_ > start;
  }
  bool peek(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t'))
      ++i_;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(Manifest, JsonIsValidDeterministicAndComplete) {
  config::Manifest m;
  m.tool = "photorack_sweep";
  m.campaign = "fig6";
  m.base_seed = 7;
  m.axes = {{"bench", {"a \"quoted\" name", "b"}},
            {"cpusim.dram.extra_ns", {"25", "35"}},
            {"cpusim.warmup", {"1000"}}};
  m.overrides = {{"cpusim.warmup", {"1000"}}};

  const std::string a = m.to_json(config::registry());
  const std::string b = m.to_json(config::registry());
  EXPECT_EQ(a, b);
  EXPECT_TRUE(JsonChecker(a).valid()) << a.substr(0, 200);
  EXPECT_NE(a.find("\"campaign\":\"fig6\""), std::string::npos);
  EXPECT_NE(a.find("\"base_seed\":7"), std::string::npos);
  // Single-valued registry-path axes resolve into the params tree; the
  // multi-valued sweep axis stays at its default there (its values are the
  // sweep itself, listed under "axes").
  EXPECT_NE(a.find("\"cpusim.warmup\":\"1000\""), std::string::npos);
  EXPECT_NE(a.find("\"cpusim.dram.extra_ns\":\"0\""), std::string::npos);
  // Every registered param appears.
  for (const config::ParamInfo* p : config::registry().params())
    EXPECT_NE(a.find(sim::json_quote(p->path)), std::string::npos) << p->path;
}

TEST(Manifest, SnapshotIsCanonicalCacheKeyMaterial) {
  cpusim::SimConfig cfg;
  const std::string base = config::registry().snapshot("cpusim", cfg);
  cfg.hierarchy.llc.size_bytes *= 2;
  const std::string changed = config::registry().snapshot("cpusim", cfg);
  EXPECT_NE(base, changed);
  EXPECT_NE(base.find("cpusim.warmup=200000"), std::string::npos) << base;
  cfg.hierarchy.llc.size_bytes /= 2;
  EXPECT_EQ(config::registry().snapshot("cpusim", cfg), base);
}

}  // namespace
}  // namespace photorack
