#include "sim/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace photorack::sim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

Table& Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) os << std::string(width[c] - row[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string fmt_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_pct(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string fmt_sci(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", decimals, v);
  return buf;
}

std::string fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

std::string fmt_double(double v) {
  char buf[32];  // the longest shortest-round-trip double takes 24 chars
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace photorack::sim
