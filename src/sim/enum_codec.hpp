#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace photorack::sim {

/// Bidirectional name<->value map for an enum: the ONE definition of an
/// enum's CLI/axis/registry spelling.  Layers define a canonical codec next
/// to the enum (e.g. disagg::allocation_policy_codec()); CLIs, campaign
/// evaluators and registry bindings all parse and format through it, so a
/// spelling can never drift between surfaces.
///
/// Header-only, in sim so that every model layer can define its codec
/// without linking the config library that binds those layers.
template <typename E>
class EnumCodec {
 public:
  EnumCodec(std::string enum_name, std::vector<std::pair<std::string, E>> items)
      : enum_name_(std::move(enum_name)), items_(std::move(items)) {
    if (items_.empty())
      throw std::invalid_argument("EnumCodec " + enum_name_ + ": no items");
  }

  /// Value for a spelling; throws std::invalid_argument listing the choices.
  [[nodiscard]] E parse(const std::string& name) const {
    for (const auto& [n, v] : items_)
      if (n == name) return v;
    throw std::invalid_argument("unknown " + enum_name_ + " '" + name + "' (want " +
                                choices() + ")");
  }

  /// Canonical spelling of a value; throws std::logic_error for values the
  /// codec does not cover (a codec/enum drift bug, not a user error).
  [[nodiscard]] const std::string& name(E value) const {
    for (const auto& [n, v] : items_)
      if (v == value) return n;
    throw std::logic_error("EnumCodec " + enum_name_ + ": unmapped value");
  }

  [[nodiscard]] bool knows(const std::string& name) const {
    for (const auto& [n, v] : items_)
      if (n == name) return true;
    return false;
  }

  /// "a|b|c" in registration order, for error messages and --params.
  [[nodiscard]] std::string choices() const {
    std::string out;
    for (const auto& [n, v] : items_) {
      if (!out.empty()) out += '|';
      out += n;
    }
    return out;
  }

  [[nodiscard]] const std::string& enum_name() const { return enum_name_; }
  [[nodiscard]] const std::vector<std::pair<std::string, E>>& items() const {
    return items_;
  }

 private:
  std::string enum_name_;
  std::vector<std::pair<std::string, E>> items_;
};

}  // namespace photorack::sim
