#include "config/value_codec.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace photorack::config {

namespace {

[[noreturn]] void bad_value(const char* want, const std::string& s) {
  throw std::invalid_argument(std::string("'") + s + "' is not a " + want);
}

}  // namespace

double parse_double(const std::string& s) {
  // strtod skips leading whitespace and accepts hex floats; require the
  // value to start with a digit, sign or dot so those forms are rejected,
  // and require the whole string to be consumed so "35ns" is rejected.
  if (s.empty()) bad_value("number", s);
  const char c = s.front();
  if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' || c == '.'))
    bad_value("number", s);
  if (s.size() > 1 && (s[0] == '0') && (s[1] == 'x' || s[1] == 'X'))
    bad_value("number", s);
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') bad_value("number", s);
  // The first-character guard blocks bare "nan"/"inf" but not the
  // sign-prefixed spellings strtod also accepts ("-nan", "+inf"); a NaN
  // would then sail through every range check (NaN comparisons are false).
  if (!std::isfinite(x)) bad_value("finite number", s);
  return x;
}

std::int64_t parse_int64(const std::string& s) {
  if (s.empty()) bad_value("integer", s);
  std::int64_t x = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), x, 10);
  if (ec != std::errc{} || ptr != s.data() + s.size()) bad_value("integer", s);
  return x;
}

std::uint64_t parse_uint64(const std::string& s) {
  // from_chars on an unsigned type rejects "-32" outright instead of
  // wrapping it the way strtoull does.
  if (s.empty()) bad_value("unsigned integer", s);
  std::uint64_t x = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), x, 10);
  if (ec != std::errc{} || ptr != s.data() + s.size()) bad_value("unsigned integer", s);
  return x;
}

bool parse_bool(const std::string& s) {
  if (s == "true" || s == "1") return true;
  if (s == "false" || s == "0") return false;
  bad_value("bool (true|false|1|0)", s);
}

}  // namespace photorack::config
