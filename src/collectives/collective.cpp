#include "collectives/collective.hpp"

#include <algorithm>
#include <stdexcept>

namespace photorack::collectives {

const sim::EnumCodec<Pattern>& pattern_codec() {
  static const sim::EnumCodec<Pattern> codec{
      "collective pattern",
      {{"ring", Pattern::kRingAllReduce},
       {"alltoall", Pattern::kAllToAll},
       {"ps", Pattern::kParamServer},
       {"broadcast", Pattern::kBroadcast}}};
  return codec;
}

namespace {

std::vector<Phase> compile_ring(int ranks, double bytes) {
  // Reduce-scatter (ranks-1 rounds) then all-gather (ranks-1 rounds); every
  // round shifts one shard of bytes/ranks to the next rank on the ring.
  const double shard = bytes / ranks;
  std::vector<Phase> program(2 * (ranks - 1));
  for (Phase& phase : program) {
    phase.flows.reserve(ranks);
    for (int i = 0; i < ranks; ++i) {
      phase.flows.push_back({i, (i + 1) % ranks, shard});
    }
  }
  return program;
}

std::vector<Phase> compile_alltoall(int ranks, double bytes) {
  // Rotation schedule: round k pairs every rank with the one k hops ahead,
  // so each round is a perfect matching of disjoint ordered pairs.
  const double shard = bytes / (ranks - 1);
  std::vector<Phase> program(ranks - 1);
  for (int k = 1; k < ranks; ++k) {
    Phase& phase = program[k - 1];
    phase.flows.reserve(ranks);
    for (int i = 0; i < ranks; ++i) {
      phase.flows.push_back({i, (i + k) % ranks, shard});
    }
  }
  return program;
}

std::vector<Phase> compile_param_server(int ranks, double bytes) {
  // Workers push full gradients into rank 0 (in-cast), then rank 0 fans the
  // reduced model back out (out-cast).
  std::vector<Phase> program(2);
  program[0].flows.reserve(ranks - 1);
  program[1].flows.reserve(ranks - 1);
  for (int i = 1; i < ranks; ++i) {
    program[0].flows.push_back({i, 0, bytes});
    program[1].flows.push_back({0, i, bytes});
  }
  return program;
}

std::vector<Phase> compile_broadcast(int ranks, double bytes) {
  // Recursive doubling: after phase p, ranks [0, 2^(p+1)) hold the payload.
  std::vector<Phase> program;
  for (int covered = 1; covered < ranks; covered *= 2) {
    Phase phase;
    const int senders = std::min(covered, ranks - covered);
    phase.flows.reserve(senders);
    for (int i = 0; i < senders; ++i) {
      phase.flows.push_back({i, i + covered, bytes});
    }
    program.push_back(std::move(phase));
  }
  return program;
}

void check_collective(int ranks, double bytes) {
  if (ranks < 1) {
    throw std::invalid_argument("collective ranks must be >= 1, got " +
                                std::to_string(ranks));
  }
  if (!(bytes >= 0.0)) {
    throw std::invalid_argument("collective bytes must be >= 0");
  }
}

/// Phase count of compile(pattern, ranks, bytes), and the bytes each of its
/// flows carries (the same in every phase of every pattern).
struct ProgramShape {
  int phases = 0;
  double flow_bytes = 0.0;
};

ProgramShape program_shape(Pattern pattern, int ranks, double bytes) {
  if (ranks == 1) return {0, bytes};
  switch (pattern) {
    case Pattern::kRingAllReduce:
      return {2 * (ranks - 1), bytes / ranks};
    case Pattern::kAllToAll:
      return {ranks - 1, bytes / (ranks - 1)};
    case Pattern::kParamServer:
      return {2, bytes};
    case Pattern::kBroadcast: {
      int phases = 0;
      for (int covered = 1; covered < ranks; covered *= 2) ++phases;
      return {phases, bytes};
    }
  }
  throw std::invalid_argument("unhandled collective pattern");
}

}  // namespace

std::vector<Phase> compile(Pattern pattern, int ranks, double bytes) {
  check_collective(ranks, bytes);
  if (ranks == 1) return {};
  switch (pattern) {
    case Pattern::kRingAllReduce:
      return compile_ring(ranks, bytes);
    case Pattern::kAllToAll:
      return compile_alltoall(ranks, bytes);
    case Pattern::kParamServer:
      return compile_param_server(ranks, bytes);
    case Pattern::kBroadcast:
      return compile_broadcast(ranks, bytes);
  }
  throw std::invalid_argument("unhandled collective pattern");
}

double lower_bound_seconds(Pattern pattern, int ranks, double bytes, double gbps) {
  if (!(gbps > 0.0)) {
    throw std::invalid_argument("collective bandwidth must be > 0 Gb/s");
  }
  check_collective(ranks, bytes);
  // Every flow of every phase carries the same bytes, so each phase's
  // slowest flow is one term: compile()'s sum is that term added once per
  // phase, in the same order, and so equal to it bit for bit.
  const ProgramShape shape = program_shape(pattern, ranks, bytes);
  const double slowest = std::max(0.0, shape.flow_bytes * 8.0 / (gbps * 1e9));
  double seconds = 0.0;
  for (int p = 0; p < shape.phases; ++p) seconds += slowest;
  return seconds;
}

}  // namespace photorack::collectives
