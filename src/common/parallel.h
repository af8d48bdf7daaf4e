#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace depminer {

namespace internal {

/// True when `Stop` is callable as a stop predicate (no arguments,
/// bool-ish result); used to disambiguate the ParallelFor overloads.
template <typename Stop, typename = void>
struct IsStopPredicate : std::false_type {};
template <typename Stop>
struct IsStopPredicate<
    Stop, std::enable_if_t<std::is_convertible_v<
              decltype(std::declval<Stop&>()()), bool>>> : std::true_type {};

/// Type-erased loop body and stop predicate for the pooled loop. `slot`
/// identifies the executing lane (0 = calling thread, then one per pool
/// helper that joined the loop) and is always < the `max_workers` passed
/// to PooledLoop, so callers may index per-worker scratch buffers by it.
using LoopBody = void (*)(void* ctx, size_t slot, size_t index);
using LoopStop = bool (*)(void* ctx);

/// Runs `body(ctx, slot, i)` for every i in [begin, end) on the shared
/// persistent worker pool, dynamic chunked scheduling, with the calling
/// thread participating as slot 0. `stop` is polled before each index on
/// every lane (cooperative cancellation, same contract as ParallelFor).
/// Blocks until every lane has finished; outputs written to
/// index-distinct slots are therefore published to the caller.
///
/// Called from inside a pool worker (a nested parallel loop) this runs
/// inline on the calling thread — the pool never deadlocks on itself.
void PooledLoop(size_t begin, size_t end, size_t max_workers, void* ctx,
                LoopBody body, LoopStop stop);

}  // namespace internal

/// Number of OS threads the shared pool has started so far. The pool is
/// lazy and persistent: threads are spawned the first time a loop asks
/// for them and are reused by every later loop (introspection for tests
/// and diagnostics).
size_t PoolWorkersStarted();

/// Number of helper invitations currently waiting in the shared pool's
/// queue (an instantaneous reading; the resource sampler exports it as a
/// saturation signal — persistently nonzero means loops want more lanes
/// than the pool has workers).
size_t PoolQueueDepth();

/// Hard cap on the shared pool's size; `num_threads` requests beyond it
/// are served by the existing workers (every index still runs).
inline constexpr size_t kMaxPoolWorkers = 256;

/// Submits `task` for asynchronous execution on a thread of the shared
/// persistent pool and returns immediately — the serve-mode request
/// scheduler. Submission grows the pool (up to kMaxPoolWorkers) so every
/// in-flight task has a dedicated lane even while parallel loops are
/// running; past the cap, tasks queue behind each other (the server's
/// admission control bounds that queue). Inside a task the pool behaves
/// normally — a ParallelFor in the task body recruits helper lanes
/// instead of degrading to the nested-loop serial path.
///
/// Tasks must not throw, and every task must have completed before
/// process teardown begins (the server's drain barrier provides this);
/// tasks still queued when the pool shuts down are dropped, not run.
/// Completion is signalled by the task itself (condition variable,
/// latch): there is no join handle by design — this is fire-and-forget.
void PoolRunDetached(std::function<void()> task);

/// Detached tasks currently queued or executing (introspection for tests
/// and the drain barrier's sanity logging).
size_t PoolDetachedInFlight();

/// Runs `fn(slot, i)` for every i in [begin, end) across up to
/// `num_threads` lanes of the shared persistent pool (the calling thread
/// is lane 0). `slot` < min(num_threads, count) and is unique among
/// concurrently executing lanes, so `fn` may index per-worker scratch
/// state (workspaces, accumulators) by it without synchronization.
/// Scheduling is dynamic (work is claimed in blocks), so which indices a
/// slot receives is not deterministic — only index-distinct outputs are.
///
/// `stop` is polled before each index on every lane; once it returns
/// true, lanes stop claiming work (the index being processed finishes —
/// cancellation is cooperative, never preemptive). Indices after the
/// stop point may or may not have run; callers pair this with per-slot
/// completion flags when they need to know. This is how a tripped
/// `RunContext` drains the pipeline stages (`RunContext::StopRequested`
/// is the canonical predicate).
///
/// No-throw contract: `fn` must be safe to call concurrently for
/// distinct indices and must not throw — an escaping exception would
/// cross into a pooled worker with no actionable context. Wrap
/// unavoidably-throwing callables in `AssertNoThrow`.
template <typename Fn, typename Stop,
          std::enable_if_t<internal::IsStopPredicate<Stop>::value, int> = 0>
void ParallelForSlotted(size_t begin, size_t end, size_t num_threads, Fn&& fn,
                        Stop&& stop) {
  const size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  if (num_threads <= 1 || count == 1) {
    for (size_t i = begin; i < end; ++i) {
      if (stop()) return;
      fn(size_t{0}, i);
    }
    return;
  }
  struct Ctx {
    std::remove_reference_t<Fn>* fn;
    std::remove_reference_t<Stop>* stop;
  } ctx{&fn, &stop};
  internal::PooledLoop(
      begin, end, std::min(num_threads, count), &ctx,
      [](void* c, size_t slot, size_t i) {
        (*static_cast<Ctx*>(c)->fn)(slot, i);
      },
      [](void* c) {
        return static_cast<bool>((*static_cast<Ctx*>(c)->stop)());
      });
}

/// Slotted form without a stop predicate: every index runs exactly once.
template <typename Fn>
void ParallelForSlotted(size_t begin, size_t end, size_t num_threads,
                        Fn&& fn) {
  ParallelForSlotted(begin, end, num_threads, std::forward<Fn>(fn),
                     [] { return false; });
}

/// Runs `fn(i)` for every i in [begin, end) across up to `num_threads`
/// lanes of the shared persistent pool. With `num_threads` ≤ 1 (or a
/// single index) the loop runs inline on the calling thread. Outputs
/// written to index-distinct slots are deterministic regardless of
/// thread count. See ParallelForSlotted for the stop-predicate and
/// no-throw contracts.
template <typename Fn, typename Stop,
          std::enable_if_t<internal::IsStopPredicate<Stop>::value, int> = 0>
void ParallelFor(size_t begin, size_t end, size_t num_threads, Fn&& fn,
                 Stop&& stop) {
  ParallelForSlotted(
      begin, end, num_threads, [&fn](size_t /*slot*/, size_t i) { fn(i); },
      std::forward<Stop>(stop));
}

/// The unconditional form: every index runs exactly once.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t num_threads, Fn&& fn) {
  ParallelFor(begin, end, num_threads, std::forward<Fn>(fn),
              [] { return false; });
}

/// Fixed-grain partition of an index range into *morsels* — the small
/// work units the agree-set engine pulls from the pool's shared queue
/// (ParallelFor's dynamic chunk claiming is the queue; a morsel is one
/// loop index). Each morsel m owns the contiguous sub-range
/// [lo(m), hi(m)), so outputs stored per-morsel and merged in morsel
/// order are a pure function of the input range, never of which lane ran
/// which morsel: results stay bit-identical at any thread count while
/// scheduling stays dynamic — a skewed or stalled morsel strands one
/// grain of work, not a static 1/num_threads share of the range.
struct MorselPlan {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t count = 0;

  /// Grain policy: aim for several morsels per lane so the dynamic
  /// scheduler has slack to balance skew, but clamp below so queue
  /// traffic and per-morsel buffers can't dominate tiny ranges, and
  /// above so one morsel's buffer stays cache- and budget-friendly.
  MorselPlan(size_t begin_, size_t end_, size_t num_threads,
             size_t min_grain = 1024, size_t max_grain = 65536)
      : begin(begin_), end(end_ > begin_ ? end_ : begin_) {
    const size_t n = end - begin;
    // Past the pool's cap extra lanes never run, and 8 * lanes must not
    // wrap to 0.
    const size_t lanes = std::clamp<size_t>(num_threads, 1, kMaxPoolWorkers);
    const size_t hi_grain = std::max(min_grain, max_grain);
    grain = std::clamp(n / (8 * lanes), std::max<size_t>(1, min_grain),
                       hi_grain);
    count = (n + grain - 1) / grain;
  }

  size_t lo(size_t m) const { return std::min(end, begin + m * grain); }
  size_t hi(size_t m) const { return std::min(end, lo(m) + grain); }
};

/// Assertion-friendly wrapper for ParallelFor's no-throw contract: the
/// returned callable runs `fn(i)` and turns any escaping exception into a
/// debug assertion failure (release builds terminate, as any throw from a
/// ParallelFor worker would anyway — but the assertion names the site).
template <typename Fn>
auto AssertNoThrow(Fn&& fn) {
  return [fn = std::forward<Fn>(fn)](size_t i) noexcept {
#if defined(__cpp_exceptions)
    try {
      fn(i);
    } catch (...) {
      assert(false && "ParallelFor body must not throw");
      std::terminate();
    }
#else
    fn(i);
#endif
  };
}

/// Sorts [begin, end) with `cmp` using up to `num_threads` pool lanes:
/// contiguous segments are sorted in parallel, then merged in rounds of
/// pairwise std::inplace_merge. The sorted sequence is the same for any
/// thread count whenever cmp-equal elements are indistinguishable (true
/// for the packed couple keys and for classes compared by content);
/// like std::sort, relative order of cmp-equal distinct elements is
/// unspecified. Small ranges fall back to a plain std::sort.
template <typename Iter, typename Cmp>
void ParallelSort(Iter begin, Iter end, size_t num_threads, Cmp cmp) {
  const size_t count = static_cast<size_t>(end - begin);
  constexpr size_t kSerialCutoff = 1u << 14;
  if (num_threads <= 1 || count < kSerialCutoff) {
    std::sort(begin, end, cmp);
    return;
  }
  const size_t ways = std::min(num_threads, count / (kSerialCutoff / 2));
  if (ways <= 1) {
    std::sort(begin, end, cmp);
    return;
  }
  // boundary(i) of segment i in [0, ways]; segments are near-equal.
  std::vector<size_t> bounds(ways + 1);
  for (size_t i = 0; i <= ways; ++i) bounds[i] = count * i / ways;
  ParallelFor(0, ways, num_threads, [&](size_t i) {
    std::sort(begin + bounds[i], begin + bounds[i + 1], cmp);
  });
  for (size_t width = 1; width < ways; width *= 2) {
    const size_t pairs = (ways + 2 * width - 1) / (2 * width);
    ParallelFor(0, pairs, num_threads, [&](size_t j) {
      const size_t lo = 2 * j * width;
      const size_t mid = lo + width;
      const size_t hi = std::min(lo + 2 * width, ways);
      if (mid >= hi) return;  // odd tail, already sorted
      std::inplace_merge(begin + bounds[lo], begin + bounds[mid],
                         begin + bounds[hi], cmp);
    });
  }
}

template <typename Iter>
void ParallelSort(Iter begin, Iter end, size_t num_threads) {
  ParallelSort(begin, end, num_threads, std::less<>());
}

/// The hardware concurrency, with a sane floor of 1.
inline size_t DefaultThreadCount() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace depminer
