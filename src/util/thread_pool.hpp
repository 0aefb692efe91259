// Fork-join data parallelism for the crypto fast path and the read side.
//
// Everything parallelized through this pool is *deterministic by
// construction*: callers only hand it pure functions writing disjoint
// output slots (per-label RSA key streams, product-tree nodes, remainder
// -tree reductions, per-entry certificate-dictionary checks and parses),
// so results are independent of thread count and scheduling. The pool
// itself therefore needs no ordering guarantees — workers pull indices
// from an atomic counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace opcua_study {

class ThreadPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency(); 1 runs
  /// every parallel_for inline on the caller (no threads spawned at all).
  explicit ThreadPool(int threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Run fn(i) for every i in [0, n); blocks until all iterations finish.
  /// n == 0 is a no-op (no threads spawned, no callbacks invoked).
  /// Iterations are claimed from an atomic counter, so big-integer work of
  /// wildly different sizes (tree levels mix megabit roots with kilobit
  /// leaves) load-balances without an explicit schedule. If any iteration
  /// throws, the remaining ones are skipped and the first exception is
  /// rethrown on the caller *with its original type* — callers that need
  /// the failing index in an error message read last_error_index() and
  /// re-wrap at their own layer.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// parallel_for over [0, n) cut into fixed blocks of `block` (> 0)
  /// consecutive indices: fn(begin, end) runs once per block. Block
  /// boundaries depend only on n and `block`, never on the thread count,
  /// so per-index work that is far cheaper than a pool claim (hashing or
  /// parsing one dictionary certificate) batches into claims worth
  /// scheduling. n <= block runs inline on the caller; an exception
  /// surfaces as in parallel_for, with last_error_index() naming the block.
  void parallel_for_blocks(std::size_t n, std::size_t block,
                           const std::function<void(std::size_t, std::size_t)>& fn) const;

  /// parallel_for with an ordered early drain: fn(i) runs in parallel as
  /// above, and merge(i) is called exactly once per index — serialized,
  /// in strictly ascending order, as soon as the contiguous prefix of
  /// completed indices reaches i. The merge order is therefore identical
  /// to a sequential pass for any thread count, while a merged index's
  /// working state can be released long before the last index finishes
  /// (the streaming aggregator's peak-memory lever: chunk partials die as
  /// the completed prefix advances instead of all coexisting until the
  /// end). When every iteration completes, every index has been merged;
  /// if fn or merge throws, the drain stops (no index merges twice) and
  /// the first exception is rethrown on the caller.
  void parallel_for_merged(std::size_t n, const std::function<void(std::size_t)>& fn,
                           const std::function<void(std::size_t)>& merge) const;

  /// Index of the iteration whose exception the most recent parallel_for /
  /// parallel_for_merged on this pool rethrew, or kNoError if it completed
  /// cleanly. Valid only after the call returns (throwing or not) — this is
  /// for building "chunk N failed" messages, not for cross-thread peeking.
  static constexpr std::size_t kNoError = static_cast<std::size_t>(-1);
  std::size_t last_error_index() const { return last_error_index_.load(std::memory_order_relaxed); }

 private:
  int size_;
  mutable std::atomic<std::size_t> last_error_index_{kNoError};
};

}  // namespace opcua_study
