#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config/value_codec.hpp"
#include "sim/enum_codec.hpp"
#include "sim/table.hpp"

namespace photorack::config {

/// Inclusive validation range for a numeric knob.  Default-constructed =
/// unbounded.  Ranges guard --set against nonsense (negative latencies,
/// zero-node racks), not against merely-unusual values.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  [[nodiscard]] bool bounded() const {
    return lo != -std::numeric_limits<double>::infinity() ||
           hi != std::numeric_limits<double>::infinity();
  }
  /// "[lo, hi]", as --params listings and range errors print it.
  [[nodiscard]] std::string str() const {
    return "[" + sim::fmt_double(lo) + ", " + sim::fmt_double(hi) + "]";
  }
};

/// One registered knob: a typed, documented, validated binding from a
/// dotted path ("cpusim.dram.extra_ns") to a field of a config struct.
/// The type-erased apply/read close over the accessor, so the registry can
/// populate and serialize structs it knows nothing about.
struct ParamInfo {
  std::string path;           // full path incl. section ("mcm.fibers")
  std::string type;           // "int", "double", "Gbps", "enum(a|b)", ...
  std::string default_value;  // canonical string of the struct default
  std::string range;          // "[lo, hi]" or "" when unbounded
  std::string doc;
  bool numeric = false;       // accepts any in-range number
  Range bounds;               // meaningful when numeric

  /// Parse + range-check `value`, assign into the struct behind `obj`.
  std::function<void(void* obj, const std::string& value)> apply;
  /// Canonical string of the field's current value in `obj`.
  std::function<std::string(const void* obj)> read;
  /// Parse + range-check only (no struct needed) — the CLI-side validator.
  std::function<void(const std::string& value)> check;
};

/// A registered config struct: its section name, the bound params in
/// registration order, and a type tag guarding build<T>() against section /
/// struct mismatches.
class SectionInfo {
 public:
  SectionInfo(std::string name, std::string struct_name, std::string doc,
              const std::type_info& type)
      : name_(std::move(name)),
        struct_name_(std::move(struct_name)),
        doc_(std::move(doc)),
        type_(&type) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& struct_name() const { return struct_name_; }
  [[nodiscard]] const std::string& doc() const { return doc_; }
  [[nodiscard]] const std::type_info& type() const { return *type_; }
  [[nodiscard]] const std::vector<ParamInfo>& params() const { return params_; }

  /// Fresh default-constructed instance of the bound struct, type-erased.
  /// With params()[i].apply/read this lets generic code (round-trip tests,
  /// serializers) work a section without knowing its type.
  [[nodiscard]] std::shared_ptr<void> make_default() const { return make_default_(); }

 private:
  friend class ParamRegistry;
  template <typename T>
  friend class SectionBinder;

  std::string name_;
  std::string struct_name_;
  std::string doc_;
  const std::type_info* type_;
  std::function<std::shared_ptr<void>()> make_default_;
  std::vector<ParamInfo> params_;
};

class ParamRegistry;

/// Fluent binder returned by ParamRegistry::section<T>(): each bind() call
/// registers one knob.  Field types route through ValueCodec (int, uint64,
/// double, bool, phot units); enums go through bind_enum with their layer's
/// canonical EnumCodec; bind_scaled covers unit-converted views (e.g. a
/// sim::TimePs field exposed in milliseconds).
template <typename T>
class SectionBinder {
 public:
  SectionBinder(ParamRegistry& reg, SectionInfo& section)
      : reg_(&reg), section_(&section) {}

  /// Bind a knob.  `accessor` is a member pointer (`&T::field`) or any
  /// callable mapping T& to a field reference (for nested fields:
  /// `[](T& t) -> int& { return t.core.width; }`).
  template <typename A>
  SectionBinder& bind(const std::string& name, A accessor, std::string doc,
                      Range range = {}) {
    auto access = make_accessor(accessor);
    using V = std::remove_reference_t<decltype(access(std::declval<T&>()))>;
    using Codec = ValueCodec<V>;

    ParamInfo p;
    p.path = path_of(name);
    p.type = Codec::kTypeName;
    p.doc = std::move(doc);
    if constexpr (Codec::kNumeric) {
      p.numeric = true;
      p.bounds = range;
      if (range.bounded()) p.range = range.str();
    }
    auto parse_checked = [p_path = p.path, range](const std::string& value) -> V {
      V v{};
      try {
        v = Codec::parse(value);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(p_path + ": " + e.what());
      }
      if constexpr (Codec::kNumeric) {
        const double d = Codec::as_double(v);
        if (d < range.lo || d > range.hi)
          throw std::out_of_range(p_path + ": value " + value + " outside " +
                                  range.str());
      }
      return v;
    };
    p.apply = [access, parse_checked](void* obj, const std::string& value) {
      access(*static_cast<T*>(obj)) = parse_checked(value);
    };
    p.read = [access](const void* obj) {
      return Codec::format(access(const_cast<T&>(*static_cast<const T*>(obj))));
    };
    p.check = [parse_checked](const std::string& value) { (void)parse_checked(value); };
    p.default_value = p.read(&defaults_);
    add(std::move(p));
    return *this;
  }

  /// Bind an enum knob through its layer's canonical EnumCodec.  The codec
  /// must outlive the registry (all canonical codecs are static).
  template <typename A, typename E>
  SectionBinder& bind_enum(const std::string& name, A accessor,
                           const sim::EnumCodec<E>& codec, std::string doc) {
    auto access = make_accessor(accessor);
    ParamInfo p;
    p.path = path_of(name);
    p.type = "enum(" + codec.choices() + ")";
    p.doc = std::move(doc);
    p.apply = [access, &codec](void* obj, const std::string& value) {
      access(*static_cast<T*>(obj)) = codec.parse(value);
    };
    p.read = [access, &codec](const void* obj) {
      return codec.name(access(const_cast<T&>(*static_cast<const T*>(obj))));
    };
    p.check = [&codec](const std::string& value) { (void)codec.parse(value); };
    p.default_value = p.read(&defaults_);
    add(std::move(p));
    return *this;
  }

  /// Bind a double-valued VIEW of a field stored in different units: the
  /// registry sees `field / scale` (e.g. a picosecond field exposed in
  /// milliseconds with scale = ps-per-ms).  Range applies to the view.
  template <typename A>
  SectionBinder& bind_scaled(const std::string& name, A accessor, double scale,
                             const char* unit, std::string doc, Range range = {}) {
    auto access = make_accessor(accessor);
    using Stored = std::remove_reference_t<decltype(access(std::declval<T&>()))>;
    static_assert(std::is_arithmetic_v<Stored>,
                  "bind_scaled wants an arithmetic stored field");
    ParamInfo p;
    p.path = path_of(name);
    p.type = std::string("double(") + unit + ")";
    p.doc = std::move(doc);
    p.numeric = true;
    p.bounds = range;
    if (range.bounded()) p.range = range.str();
    auto parse_checked = [p_path = p.path, range](const std::string& value) {
      double d = 0;
      try {
        d = parse_double(value);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(p_path + ": " + e.what());
      }
      if (d < range.lo || d > range.hi)
        throw std::out_of_range(p_path + ": value " + value + " outside " + range.str());
      return d;
    };
    p.apply = [access, parse_checked, scale](void* obj, const std::string& value) {
      access(*static_cast<T*>(obj)) = static_cast<Stored>(parse_checked(value) * scale);
    };
    p.read = [access, scale](const void* obj) {
      return sim::fmt_double(
          static_cast<double>(access(const_cast<T&>(*static_cast<const T*>(obj)))) /
          scale);
    };
    p.check = [parse_checked](const std::string& value) { (void)parse_checked(value); };
    p.default_value = p.read(&defaults_);
    add(std::move(p));
    return *this;
  }

 private:
  template <typename A>
  static auto make_accessor(A accessor) {
    if constexpr (std::is_member_object_pointer_v<A>) {
      return [accessor](T& t) -> decltype(auto) { return t.*accessor; };
    } else {
      return accessor;
    }
  }

  [[nodiscard]] std::string path_of(const std::string& name) const {
    return section_->name() + "." + name;
  }

  void add(ParamInfo p);

  ParamRegistry* reg_;
  SectionInfo* section_;
  T defaults_{};  // registration-time instance the default strings come from
};

/// The typed, path-addressable parameter space: every layer's config struct
/// registered as a section of dotted paths.  One process-wide instance
/// (config::registry()) is built by config/bindings.cpp; tests may build
/// private registries.
class ParamRegistry {
 public:
  ParamRegistry() = default;
  ParamRegistry(const ParamRegistry&) = delete;
  ParamRegistry& operator=(const ParamRegistry&) = delete;

  /// Open a section for struct T; returned binder registers its knobs.
  template <typename T>
  SectionBinder<T> section(std::string name, std::string struct_name,
                           std::string doc = {}) {
    if (section_index_.count(name))
      throw std::logic_error("ParamRegistry: duplicate section '" + name + "'");
    section_index_.emplace(name, sections_.size());
    sections_.push_back(std::make_unique<SectionInfo>(
        std::move(name), std::move(struct_name), std::move(doc), typeid(T)));
    sections_.back()->make_default_ = [] {
      return std::shared_ptr<void>(std::make_shared<T>());
    };
    return SectionBinder<T>(*this, *sections_.back());
  }

  [[nodiscard]] bool has(const std::string& path) const {
    return param_index_.count(path) != 0;
  }
  /// Param for a path, or nullptr.
  [[nodiscard]] const ParamInfo* find(const std::string& path) const;
  /// Param for a path; throws std::out_of_range naming near-miss
  /// suggestions when unknown.
  [[nodiscard]] const ParamInfo& at(const std::string& path) const;

  [[nodiscard]] const std::vector<std::unique_ptr<SectionInfo>>& sections() const {
    return sections_;
  }
  [[nodiscard]] const SectionInfo* find_section(const std::string& name) const;
  /// Every param in registration order (sections in registration order).
  [[nodiscard]] std::vector<const ParamInfo*> params() const;

  /// Closest registered paths to a misspelled one (edit distance), best
  /// first; used in unknown-path errors.
  [[nodiscard]] std::vector<std::string> suggest(const std::string& path,
                                                 std::size_t max_results = 3) const;

  /// Build section `name`'s struct: defaults, then `overrides` (full paths)
  /// applied in order.  Throws on type mismatch, unknown path, bad value.
  template <typename T>
  [[nodiscard]] T build(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& overrides = {}) const {
    const SectionInfo& s = checked_section<T>(name);
    T value{};
    for (const auto& [path, v] : overrides) at_in(s, path).apply(&value, v);
    return value;
  }

  /// Canonical "path=value,..." snapshot of a struct's bound fields, in
  /// registration order — a deterministic cache key / manifest fragment.
  template <typename T>
  [[nodiscard]] std::string snapshot(const std::string& name, const T& value) const {
    const SectionInfo& s = checked_section<T>(name);
    std::string out;
    for (const auto& p : s.params()) {
      if (!out.empty()) out += ',';
      out += p.path;
      out += '=';
      out += p.read(&value);
    }
    return out;
  }

 private:
  template <typename T>
  friend class SectionBinder;

  template <typename T>
  [[nodiscard]] const SectionInfo& checked_section(const std::string& name) const {
    const SectionInfo* s = find_section(name);
    if (s == nullptr) throw std::out_of_range("ParamRegistry: no section '" + name + "'");
    if (s->type() != typeid(T))
      throw std::logic_error("ParamRegistry: section '" + name + "' binds " +
                             s->struct_name() + ", not the requested type");
    return *s;
  }

  /// Param of `s` for full path `path`; throws with suggestions.
  [[nodiscard]] const ParamInfo& at_in(const SectionInfo& s,
                                       const std::string& path) const;

  void add_param(SectionInfo& s, ParamInfo p);

  std::vector<std::unique_ptr<SectionInfo>> sections_;
  std::unordered_map<std::string, std::size_t> section_index_;
  // path -> (section idx, param idx)
  std::unordered_map<std::string, std::pair<std::size_t, std::size_t>> param_index_;
};

template <typename T>
void SectionBinder<T>::add(ParamInfo p) {
  reg_->add_param(*section_, std::move(p));
}

/// An ordered list of path=value overrides resolved against a registry:
/// the single way configuration reaches the model layers.  set() validates
/// eagerly (unknown path -> suggestions; bad value / out of range ->
/// throw), build<T>() populates a section's struct, to_json() serializes
/// the FULL resolved tree deterministically for manifests.
class ConfigTree {
 public:
  explicit ConfigTree(const ParamRegistry& reg);

  ConfigTree& set(const std::string& path, const std::string& value);

  [[nodiscard]] const ParamRegistry& registry() const { return *reg_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& overrides()
      const {
    return overrides_;
  }

  /// Resolved value of one path: last override, else the default.
  [[nodiscard]] const std::string& value(const std::string& path) const;

  template <typename T>
  [[nodiscard]] T build(const std::string& section) const {
    const SectionInfo* s = reg_->find_section(section);
    if (s == nullptr)
      throw std::out_of_range("ConfigTree: no section '" + section + "'");
    const std::string prefix = section + ".";
    std::vector<std::pair<std::string, std::string>> in_section;
    for (const auto& ov : overrides_)
      if (ov.first.compare(0, prefix.size(), prefix) == 0) in_section.push_back(ov);
    return reg_->build<T>(section, in_section);
  }

  /// `{"path":"value",...}` over EVERY registered param, sorted by path —
  /// byte-stable for identical trees regardless of override order.
  [[nodiscard]] std::string to_json() const;

 private:
  const ParamRegistry* reg_;
  std::vector<std::pair<std::string, std::string>> overrides_;
};

/// "did you mean a, b, c?" from suggest() output; empty when there are no
/// suggestions.  The one phrasing shared by every unknown-path error.
[[nodiscard]] std::string format_suggestions(const std::vector<std::string>& near);

}  // namespace photorack::config
