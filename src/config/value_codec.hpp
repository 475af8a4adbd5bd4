#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "phot/units.hpp"
#include "sim/table.hpp"

namespace photorack::config {

/// Strict scalar parsing shared by the parameter registry, the scenario
/// axes and both CLIs.  Unlike std::sto*, every helper requires the WHOLE
/// string to be one value: trailing garbage ("35ns"), leading whitespace,
/// hex forms and silently-wrapped negatives all throw std::invalid_argument
/// with the offending text in the message.
[[nodiscard]] double parse_double(const std::string& s);
[[nodiscard]] std::int64_t parse_int64(const std::string& s);
[[nodiscard]] std::uint64_t parse_uint64(const std::string& s);
/// Accepts exactly "true" / "false" / "1" / "0".
[[nodiscard]] bool parse_bool(const std::string& s);

/// Per-field-type codec the registry's typed bindings dispatch on: a type
/// name for --params listings, strict parse, canonical format, and (for
/// numerics) a double view for range validation.
template <typename V>
struct ValueCodec;  // unspecialized field types fail to bind, loudly

template <>
struct ValueCodec<double> {
  static constexpr const char* kTypeName = "double";
  static constexpr bool kNumeric = true;
  static double parse(const std::string& s) { return parse_double(s); }
  static std::string format(double v) { return sim::fmt_double(v); }
  static double as_double(double v) { return v; }
};

template <>
struct ValueCodec<int> {
  static constexpr const char* kTypeName = "int";
  static constexpr bool kNumeric = true;
  static int parse(const std::string& s) {
    // Range-check BEFORE narrowing: a silent wrap (4294967297 -> 1) would
    // pass the binding's range validation while the manifest records a
    // value the run never used.
    const std::int64_t v = parse_int64(s);
    if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
      throw std::invalid_argument("'" + s + "' overflows int");
    return static_cast<int>(v);
  }
  static std::string format(int v) { return std::to_string(v); }
  static double as_double(int v) { return v; }
};

template <>
struct ValueCodec<std::uint64_t> {
  static constexpr const char* kTypeName = "uint64";
  static constexpr bool kNumeric = true;
  static std::uint64_t parse(const std::string& s) { return parse_uint64(s); }
  static std::string format(std::uint64_t v) { return std::to_string(v); }
  static double as_double(std::uint64_t v) { return static_cast<double>(v); }
};

template <>
struct ValueCodec<bool> {
  static constexpr const char* kTypeName = "bool";
  static constexpr bool kNumeric = false;
  static bool parse(const std::string& s) { return parse_bool(s); }
  static std::string format(bool v) { return v ? "true" : "false"; }
};

/// Free-form strings (file paths, trace names).  Identity parse/format:
/// any value round-trips, including the empty string.
template <>
struct ValueCodec<std::string> {
  static constexpr const char* kTypeName = "string";
  static constexpr bool kNumeric = false;
  static std::string parse(const std::string& s) { return s; }
  static std::string format(const std::string& v) { return v; }
};

/// Unit-wrapped doubles (phot::Unit<Tag>) parse and format as their raw
/// value; the type name carries the unit so --params stays unambiguous.
namespace detail {
template <typename U, const char* Name>
struct UnitCodec {
  static constexpr const char* kTypeName = Name;
  static constexpr bool kNumeric = true;
  static U parse(const std::string& s) { return U{parse_double(s)}; }
  static std::string format(U v) { return sim::fmt_double(v.value); }
  static double as_double(U v) { return v.value; }
};
inline constexpr char kGbpsName[] = "Gbps";
inline constexpr char kGBpsName[] = "GBps";
inline constexpr char kWattsName[] = "W";
inline constexpr char kPjPerBitName[] = "pJ/bit";
}  // namespace detail

template <>
struct ValueCodec<phot::Gbps> : detail::UnitCodec<phot::Gbps, detail::kGbpsName> {};
template <>
struct ValueCodec<phot::GBps> : detail::UnitCodec<phot::GBps, detail::kGBpsName> {};
template <>
struct ValueCodec<phot::Watts> : detail::UnitCodec<phot::Watts, detail::kWattsName> {};
template <>
struct ValueCodec<phot::PjPerBit>
    : detail::UnitCodec<phot::PjPerBit, detail::kPjPerBitName> {};

}  // namespace photorack::config
