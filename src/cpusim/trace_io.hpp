#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cpusim/trace.hpp"

namespace photorack::cpusim {

/// Compact binary trace format, the analogue of the paper's workflow of
/// extracting memory/instruction traces once and replaying them through the
/// performance model (§VI-B3 does this with PPT-GPU SASS traces).
///
/// Layout: 16-byte header (magic, version, count), then one record per
/// instruction: a packed flags byte (kind + dependence) followed by a
/// varint-delta address for memory ops.  Typical synthetic traces compress
/// to ~2-4 bytes per instruction.
inline constexpr std::uint32_t kTraceMagic = 0x50545243;  // "PTRC"
inline constexpr std::uint32_t kTraceVersion = 1;

/// Serialize `n` instructions drawn from `source` to a stream/file.
/// Returns the number written.
std::uint64_t write_trace(std::ostream& os, TraceSource& source, std::uint64_t n,
                          std::uint64_t footprint_bytes = 0);

/// In-memory recorded trace; replays identically on every reset().
class RecordedTrace final : public TraceSource {
 public:
  explicit RecordedTrace(std::vector<Instr> instrs, std::uint64_t footprint = 0)
      : instrs_(std::move(instrs)), footprint_(footprint) {}

  /// Parse from a stream/file; throws std::runtime_error on malformed
  /// input (bad magic, truncation, version mismatch).
  static RecordedTrace read(std::istream& is);
  static RecordedTrace read_file(const std::string& path);

  std::size_t next_batch(std::span<Instr> out) override;
  void reset() override { pos_ = 0; }
  [[nodiscard]] std::uint64_t footprint_bytes() const override { return footprint_; }

  [[nodiscard]] std::uint64_t size() const { return instrs_.size(); }
  [[nodiscard]] const std::vector<Instr>& instructions() const { return instrs_; }

 private:
  std::vector<Instr> instrs_;
  std::uint64_t footprint_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace photorack::cpusim
