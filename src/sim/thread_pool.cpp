#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <vector>

namespace photorack::sim {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t workers) {
  if (n == 0) return;
  workers = std::max<std::size_t>(1, std::min(workers, n));
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(error_mu);
          if (!first_error) first_error = std::current_exception();
          return;  // this worker stops; others drain their remaining indices
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace photorack::sim
