#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace photorack::sim {

/// Minimal aligned-column text table used by the bench binaries to print the
/// paper's tables and figure data as rows.  Numeric cells are formatted by
/// the caller (so each bench controls precision).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Render with a header rule and 2-space column gaps.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

  /// Write as CSV (no quoting of commas; callers avoid commas in cells).
  void write_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formatting helpers shared by benches and examples.
[[nodiscard]] std::string fmt_fixed(double v, int decimals);
[[nodiscard]] std::string fmt_pct(double fraction, int decimals = 1);  // 0.15 -> "15.0%"
[[nodiscard]] std::string fmt_sci(double v, int decimals = 2);
[[nodiscard]] std::string fmt_int(long long v);

/// Shortest decimal that round-trips the double exactly (std::to_chars):
/// locale-free, so registry values, manifests, sweep cells, traces and
/// metrics compare bit-exactly across serialize/parse cycles.
[[nodiscard]] std::string fmt_double(double v);

/// JSON string literal: quotes, backslashes and control characters escaped.
[[nodiscard]] std::string json_quote(const std::string& s);

}  // namespace photorack::sim
