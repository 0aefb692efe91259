#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace opcua_study {

ThreadPool::ThreadPool(int threads)
    : size_(threads > 0 ? threads
                        : std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  last_error_index_.store(kNoError, std::memory_order_relaxed);
  const int workers = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(size_), n));
  obs::add(obs::Metric::pool_jobs);
  obs::add(obs::Metric::pool_iterations, n);
  obs::gauge_peak(obs::Metric::pool_width_peak, static_cast<std::uint64_t>(workers));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        last_error_index_.store(i, std::memory_order_relaxed);
        throw;
      }
    }
    return;
  }

  // Fork-join per call: the jobs routed here cost from sub-millisecond
  // dictionary blocks (parallel_for_blocks) up to seconds per index (RSA
  // keygen, product-tree levels). A thread start-up is tens of
  // microseconds, which even the shortest job amortizes over its blocks,
  // so a persistent worker set would only add lifecycle complexity.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::atomic<bool> error_claimed{false};
  auto body = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        if (!error_claimed.exchange(true)) {
          first_error = std::current_exception();
          last_error_index_.store(i, std::memory_order_relaxed);
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 0; t < workers - 1; ++t) pool.emplace_back(body);
  body();  // the caller is worker zero
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_blocks(
    std::size_t n, std::size_t block,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  parallel_for((n + block - 1) / block, [&](std::size_t b) {
    const std::size_t begin = b * block;
    fn(begin, std::min(n, begin + block));
  });
}

void ThreadPool::parallel_for_merged(std::size_t n, const std::function<void(std::size_t)>& fn,
                                     const std::function<void(std::size_t)>& merge) const {
  if (n == 0) return;
  if (size_ <= 1 || n == 1) {
    last_error_index_.store(kNoError, std::memory_order_relaxed);
    obs::add(obs::Metric::pool_jobs);
    obs::add(obs::Metric::pool_iterations, n);
    obs::gauge_peak(obs::Metric::pool_width_peak, 1);
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
        merge(i);
      } catch (...) {
        last_error_index_.store(i, std::memory_order_relaxed);
        throw;
      }
    }
    return;
  }

  // Whichever worker completes an index takes the merge lock and drains
  // the contiguous completed prefix. Merges are serialized and strictly
  // ascending, so the merged state evolves exactly as in a sequential
  // pass; the last index to complete drains whatever remains, so by the
  // time parallel_for returns every index has been merged. next_merge
  // advances *before* the call and a throwing merge poisons the drain, so
  // even on failure no index is merged twice — parallel_for rethrows and
  // the partial merge is abandoned with the rest of the computation.
  std::vector<char> done(n, 0);
  std::size_t next_merge = 0;
  bool merge_failed = false;
  std::size_t merge_error_index = kNoError;  // guarded by merge_mutex
  std::mutex merge_mutex;
  try {
    parallel_for(n, [&](std::size_t i) {
      fn(i);
      const std::lock_guard<std::mutex> lock(merge_mutex);
      done[i] = 1;
      if (merge_failed) return;
      while (next_merge < n && done[next_merge]) {
        const std::size_t index = next_merge++;
        try {
          merge(index);
        } catch (...) {
          merge_failed = true;
          merge_error_index = index;
          throw;
        }
      }
    });
  } catch (...) {
    // A merge throw surfaces out of whichever iteration drained the prefix;
    // report the index that was actually being merged, not the drainer.
    if (merge_error_index != kNoError) {
      last_error_index_.store(merge_error_index, std::memory_order_relaxed);
    }
    throw;
  }
}

}  // namespace opcua_study
