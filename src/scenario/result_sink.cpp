#include "scenario/result_sink.hpp"

#include <cctype>
#include <ostream>

namespace photorack::scenario {

namespace {

bool needs_csv_quotes(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

void write_csv_cell(std::ostream& os, const std::string& cell) {
  if (!needs_csv_quotes(cell)) {
    os << cell;
    return;
  }
  os << '"';
  for (const char c : cell) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

void write_csv_line(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os << ',';
    write_csv_cell(os, cells[i]);
  }
  os << '\n';
}

/// A cell is emitted as a raw JSON number iff it matches RFC 8259's number
/// grammar exactly.  strtod is too permissive here — it accepts "+50",
/// "0x1f", ".5" and "5." — and any of those unquoted would make the line
/// unparseable for strict JSON consumers.
bool is_json_number(const std::string& cell) {
  std::size_t i = 0;
  const std::size_t n = cell.size();
  const auto digit = [&](std::size_t k) {
    return k < n && std::isdigit(static_cast<unsigned char>(cell[k]));
  };
  if (i < n && cell[i] == '-') ++i;
  if (!digit(i)) return false;
  if (cell[i] == '0') {
    ++i;  // no leading zeros: "0" may not be followed by more digits
  } else {
    while (digit(i)) ++i;
  }
  if (i < n && cell[i] == '.') {
    ++i;
    if (!digit(i)) return false;
    while (digit(i)) ++i;
  }
  if (i < n && (cell[i] == 'e' || cell[i] == 'E')) {
    ++i;
    if (i < n && (cell[i] == '+' || cell[i] == '-')) ++i;
    if (!digit(i)) return false;
    while (digit(i)) ++i;
  }
  return i == n;
}

}  // namespace

void CsvSink::manifest(const std::string& manifest_json) {
  os_ << "# manifest " << manifest_json << '\n';
}

void CsvSink::open(const std::vector<std::string>& columns) {
  write_csv_line(os_, columns);
}

void CsvSink::write(const ResultRow& row) { write_csv_line(os_, row.cells); }

void CsvSink::close() { os_.flush(); }

void JsonlSink::manifest(const std::string& manifest_json) {
  os_ << "{\"manifest\":" << manifest_json << "}\n";
}

void JsonlSink::open(const std::vector<std::string>& columns) { columns_ = columns; }

void JsonlSink::write(const ResultRow& row) {
  os_ << '{';
  for (std::size_t i = 0; i < row.cells.size() && i < columns_.size(); ++i) {
    if (i) os_ << ',';
    os_ << sim::json_quote(columns_[i]) << ':';
    if (is_json_number(row.cells[i])) {
      os_ << row.cells[i];
    } else {
      os_ << sim::json_quote(row.cells[i]);
    }
  }
  os_ << "}\n";
}

void JsonlSink::close() { os_.flush(); }

void TableSink::open(const std::vector<std::string>& columns) {
  table_.clear();
  table_.emplace_back(columns);
}

void TableSink::write(const ResultRow& row) {
  if (!table_.empty()) table_.front().add_row(row.cells);
}

void TableSink::close() {
  if (table_.empty()) return;
  table_.front().print(os_);
  table_.clear();
}

}  // namespace photorack::scenario
