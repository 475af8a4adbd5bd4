#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace photorack::scenario {

/// One emitted result record; cells parallel the sweep's column list.
struct ResultRow {
  std::vector<std::string> cells;
};

// Writers for a sweep's rows.  Callers pass SweepResult::rows, already in
// grid order, so every artifact is byte-identical across --jobs levels.  A
// non-empty `manifest_json` (deterministic JSON; see config::Manifest) is
// written as the first line of the two machine formats.

/// RFC-4180-style CSV: the manifest as a `# manifest <json>` comment line
/// (strip with `grep -v '^#'` or pandas' comment='#'), the header line, one
/// line per row.  Only cells containing a comma, quote or newline are quoted.
void write_csv(std::ostream& os, const std::vector<std::string>& columns,
               const std::vector<ResultRow>& rows, const std::string& manifest_json = {});

/// JSON lines: the manifest as a first `{"manifest":{...}}` line, then one
/// object per row.  Cells that match RFC 8259's number grammar are emitted
/// as JSON numbers; everything else as escaped strings.
void write_jsonl(std::ostream& os, const std::vector<std::string>& columns,
                 const std::vector<ResultRow>& rows, const std::string& manifest_json = {});

/// The aligned sim::Table view the bench binaries print; no manifest.
void print_table(std::ostream& os, const std::vector<std::string>& columns,
                 const std::vector<ResultRow>& rows);

}  // namespace photorack::scenario
