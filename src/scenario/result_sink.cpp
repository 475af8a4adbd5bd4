#include "scenario/result_sink.hpp"

#include <cctype>
#include <ostream>

#include "sim/table.hpp"

namespace photorack::scenario {

namespace {

void write_csv_cell(std::ostream& os, const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
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

void write_csv(std::ostream& os, const std::vector<std::string>& columns,
               const std::vector<ResultRow>& rows, const std::string& manifest_json) {
  if (!manifest_json.empty()) os << "# manifest " << manifest_json << '\n';
  write_csv_line(os, columns);
  for (const ResultRow& row : rows) write_csv_line(os, row.cells);
}

void write_jsonl(std::ostream& os, const std::vector<std::string>& columns,
                 const std::vector<ResultRow>& rows, const std::string& manifest_json) {
  if (!manifest_json.empty()) os << "{\"manifest\":" << manifest_json << "}\n";
  for (const ResultRow& row : rows) {
    os << '{';
    for (std::size_t i = 0; i < row.cells.size() && i < columns.size(); ++i) {
      if (i) os << ',';
      os << sim::json_quote(columns[i]) << ':';
      if (is_json_number(row.cells[i])) {
        os << row.cells[i];
      } else {
        os << sim::json_quote(row.cells[i]);
      }
    }
    os << "}\n";
  }
}

void print_table(std::ostream& os, const std::vector<std::string>& columns,
                 const std::vector<ResultRow>& rows) {
  sim::Table table(columns);
  for (const ResultRow& row : rows) table.add_row(row.cells);
  table.print(os);
}

}  // namespace photorack::scenario
