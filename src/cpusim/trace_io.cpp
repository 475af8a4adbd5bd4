#include "cpusim/trace_io.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace photorack::cpusim {

namespace {

void put_u32(std::ostream& os, std::uint32_t v) {
  const std::array<char, 4> b = {static_cast<char>(v), static_cast<char>(v >> 8),
                                 static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  os.write(b.data(), b.size());
}

void put_u64(std::ostream& os, std::uint64_t v) {
  put_u32(os, static_cast<std::uint32_t>(v));
  put_u32(os, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(std::istream& is) {
  std::array<unsigned char, 4> b{};
  is.read(reinterpret_cast<char*>(b.data()), b.size());
  if (!is) throw std::runtime_error("trace: truncated header");
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(std::istream& is) {
  const std::uint64_t lo = get_u32(is);
  const std::uint64_t hi = get_u32(is);
  return lo | (hi << 32);
}

/// ZigZag + LEB128 varint for signed address deltas.
void put_varint(std::ostream& os, std::int64_t v) {
  auto zz = static_cast<std::uint64_t>((v << 1) ^ (v >> 63));
  do {
    auto byte = static_cast<unsigned char>(zz & 0x7F);
    zz >>= 7;
    if (zz != 0) byte |= 0x80;
    os.put(static_cast<char>(byte));
  } while (zz != 0);
}

std::int64_t get_varint(std::istream& is) {
  std::uint64_t zz = 0;
  int shift = 0;
  for (;;) {
    const int c = is.get();
    if (c == EOF) throw std::runtime_error("trace: truncated varint");
    zz |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) throw std::runtime_error("trace: varint overflow");
  }
  return static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
}

}  // namespace

std::uint64_t write_trace(std::ostream& os, TraceSource& source, std::uint64_t n,
                          std::uint64_t footprint_bytes) {
  put_u32(os, kTraceMagic);
  put_u32(os, kTraceVersion);
  put_u64(os, n);
  put_u64(os, footprint_bytes ? footprint_bytes : source.footprint_bytes());

  std::array<Instr, 4096> batch;
  std::uint64_t written = 0;
  std::uint64_t last_addr = 0;
  source.reset();
  while (written < n) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(n - written, batch.size()));
    const std::size_t got = source.next_batch(std::span<Instr>(batch.data(), want));
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      const Instr& ins = batch[i];
      // flags: bits 0-1 kind, bit 2 dependent.
      const auto flags = static_cast<unsigned char>(
          static_cast<int>(ins.kind) | (ins.dependent ? 4 : 0));
      os.put(static_cast<char>(flags));
      if (ins.kind != OpKind::kAlu) {
        put_varint(os, static_cast<std::int64_t>(ins.addr) -
                           static_cast<std::int64_t>(last_addr));
        last_addr = ins.addr;
      }
    }
    written += got;
  }
  return written;
}

RecordedTrace RecordedTrace::read(std::istream& is) {
  if (get_u32(is) != kTraceMagic) throw std::runtime_error("trace: bad magic");
  const std::uint32_t version = get_u32(is);
  if (version != kTraceVersion) throw std::runtime_error("trace: unsupported version");
  const std::uint64_t count = get_u64(is);
  const std::uint64_t footprint = get_u64(is);

  std::vector<Instr> instrs;
  instrs.reserve(static_cast<std::size_t>(count));
  std::uint64_t last_addr = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const int c = is.get();
    if (c == EOF) throw std::runtime_error("trace: truncated record");
    Instr ins;
    ins.kind = static_cast<OpKind>(c & 3);
    ins.dependent = (c & 4) != 0;
    if (ins.kind != OpKind::kAlu) {
      last_addr = static_cast<std::uint64_t>(static_cast<std::int64_t>(last_addr) +
                                             get_varint(is));
      ins.addr = last_addr;
    }
    instrs.push_back(ins);
  }
  return RecordedTrace(std::move(instrs), footprint);
}

RecordedTrace RecordedTrace::read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace: cannot open for reading: " + path);
  return read(is);
}

std::size_t RecordedTrace::next_batch(std::span<Instr> out) {
  std::size_t n = 0;
  while (n < out.size() && pos_ < instrs_.size()) out[n++] = instrs_[pos_++];
  return n;
}

}  // namespace photorack::cpusim
