#pragma once

#include <cstddef>
#include <functional>
#include <thread>

namespace photorack::sim {

/// Run fn(i) for i in [0, n) on up to `workers` transient threads; blocks
/// until done.  One worker (or n == 1) runs the indices in order on the
/// calling thread.  Index-stable: fn receives the logical index, so
/// per-index seeding keeps parallel runs bit-identical to serial runs.  If
/// fn throws, the first captured exception is rethrown after all workers
/// have stopped.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t workers = std::thread::hardware_concurrency());

}  // namespace photorack::sim
