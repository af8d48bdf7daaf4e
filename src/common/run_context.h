#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace depminer {

/// Shared, thread-safe handle governing the resources of one discovery
/// run: a wall-clock deadline, a cooperative cancellation flag, and a
/// byte-accounted memory budget.
///
/// The worst cases of every miner in this library are exponential in the
/// number of attributes (levelwise transversal search, TANE's lattice,
/// FastFDs' cover DFS), so production callers need a way to bound a run
/// that has already started. A `RunContext` is passed by pointer through
/// the option structs (`DepMinerOptions::run_context`,
/// `TaneOptions::run_context`, ...); `nullptr` — the default everywhere —
/// means "no governance" and costs one pointer test per check site.
///
/// Long-running stages call `Check()` (or the `DEPMINER_CHECK_RUN` macro)
/// at natural work-unit boundaries: agree-set chunks, lattice/transversal
/// levels, partition products, DFS node batches, CSV record batches.
/// When a limit has tripped, the stage stops where it is and the pipeline
/// returns whatever it completed, flagged incomplete (see
/// `DepMinerResult::complete`).
///
/// Thread safety: every member is a lock-free atomic. `RequestCancel()`
/// is additionally async-signal-safe, so a SIGINT handler may call it
/// directly (this is exactly what `fdtool` does).
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Arms a deadline `timeout` from now. Call before starting the run. A
  /// deadline past the clock's range is no deadline: the sum would wrap
  /// into the past and trip at once.
  void SetTimeout(std::chrono::milliseconds timeout) {
    const Clock::time_point now = Clock::now();
    if (timeout >= std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::time_point::max() - now)) {
      return;
    }
    SetDeadline(now + timeout);
  }

  /// Arms an absolute wall-clock deadline.
  void SetDeadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }

  /// Arms a memory budget: `Check()` fails with `kCapacityExceeded` once
  /// the charged working-set bytes exceed it. 0 disarms.
  void SetMemoryBudget(size_t bytes) {
    budget_bytes_.store(bytes, std::memory_order_relaxed);
    if (bytes != 0) armed_.store(true, std::memory_order_release);
  }

  /// Requests cooperative cancellation. Safe from any thread and from a
  /// signal handler; the run winds down at its next check site.
  void RequestCancel() {
    cancelled_.store(true, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Forces the context into a failed verdict with the given code, as if
  /// the corresponding limit had tripped. `Check()` reports the forced
  /// code ahead of every real limit from the next call on, so the run
  /// winds down through its ordinary partial-result machinery. This is
  /// how a failed working-set allocation is surfaced (and how the fault
  /// layer injects one): the allocating stage cannot continue, but every
  /// stage already knows how to stop at a `kCapacityExceeded` verdict.
  /// Lock-free and async-signal-safe, like `RequestCancel()`.
  void ForceTrip(StatusCode code) {
    forced_code_.store(static_cast<int>(code), std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
  }

  /// True once `ForceTrip` was called.
  bool force_tripped() const {
    return forced_code_.load(std::memory_order_relaxed) !=
           static_cast<int>(StatusCode::kOk);
  }

  /// True iff any limit was armed or cancellation requested. The fast
  /// filter every check starts with; an unarmed context is free.
  bool limited() const { return armed_.load(std::memory_order_acquire); }

  /// Working-set accounting. Stages charge the size of their dominant
  /// structure (couple lists, live lattice partitions, streaming buckets)
  /// and release it when the structure dies — `ScopedMemoryCharge` below
  /// makes that exception-safe. Charges from concurrent stages add up,
  /// which is the honest total.
  void ChargeBytes(size_t delta) {
    const size_t now =
        bytes_used_.fetch_add(delta, std::memory_order_relaxed) + delta;
    size_t peak = high_water_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !high_water_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  void ReleaseBytes(size_t delta) {
    bytes_used_.fetch_sub(delta, std::memory_order_relaxed);
  }
  size_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  size_t high_water_bytes() const {
    return high_water_bytes_.load(std::memory_order_relaxed);
  }
  /// The armed memory budget; 0 = unarmed. (The resource sampler exports
  /// charged-vs-budget as a time series.)
  size_t budget_bytes() const {
    return budget_bytes_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds until the armed deadline (negative once past it), or
  /// INT64_MAX when no deadline is armed. For observability only — the
  /// governed verdict is `Check()`.
  int64_t DeadlineSlackNs() const {
    const int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == kNoDeadline) return INT64_MAX;
    return d - Clock::now().time_since_epoch().count();
  }

  /// The governed verdict, in precedence order: cancellation, deadline,
  /// memory budget. OK while the run may continue. Unarmed contexts
  /// return OK after a single atomic load.
  Status Check() const;

  /// Cheap predicate form of `Check()` for early-stop loops
  /// (`ParallelFor` stop predicates): true once the run should wind down.
  bool StopRequested() const {
    return limited() && !Check().ok();
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> cancelled_{false};
  /// Forced verdict from `ForceTrip`; kOk (0) when none. Mutable so the
  /// const `Check()` can latch an injected deadline-jitter fault.
  mutable std::atomic<int> forced_code_{0};
  /// Deadline as steady_clock ns-since-epoch; kNoDeadline = unarmed.
  static constexpr int64_t kNoDeadline = INT64_MAX;
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  std::atomic<size_t> budget_bytes_{0};
  std::atomic<size_t> bytes_used_{0};
  std::atomic<size_t> high_water_bytes_{0};
};

/// RAII working-set charge against a (possibly null) context. `Set`
/// re-charges to a new running estimate; destruction releases whatever is
/// currently charged.
class ScopedMemoryCharge {
 public:
  explicit ScopedMemoryCharge(RunContext* ctx) : ctx_(ctx) {}
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;
  ~ScopedMemoryCharge() {
    if (ctx_ != nullptr && charged_ != 0) ctx_->ReleaseBytes(charged_);
  }

  /// Adjusts the charge to `total` bytes (the stage's current estimate).
  void Set(size_t total) {
    if (ctx_ == nullptr) return;
    if (total > charged_) {
      ctx_->ChargeBytes(total - charged_);
    } else if (total < charged_) {
      ctx_->ReleaseBytes(charged_ - total);
    }
    charged_ = total;
  }

  size_t charged() const { return charged_; }

 private:
  RunContext* ctx_;
  size_t charged_ = 0;
};

/// Amortized stop poller for tight (often per-lane) loops: polls the
/// governing context's atomics on the first call and then once every
/// `stride` calls, so the cancellation check costs a local counter
/// increment on the fast path. Polling the very first call matters for
/// determinism: an already-tripped context stops every lane before it
/// processes anything, for any thread count. Once a poll observes a trip
/// the answer latches to true. Each parallel lane owns its own instance
/// (the class is not thread-safe; the context it polls is).
class StridedStopPoller {
 public:
  explicit StridedStopPoller(const RunContext* ctx, uint32_t stride = 1024)
      : ctx_(ctx), stride_(stride == 0 ? 1 : stride) {}

  bool StopRequested() {
    if (ctx_ == nullptr || !ctx_->limited()) return false;
    if (stopped_) return true;
    if (calls_++ % stride_ != 0) return false;
    stopped_ = ctx_->StopRequested();
    return stopped_;
  }

 private:
  const RunContext* ctx_;
  uint32_t stride_;
  uint32_t calls_ = 0;
  bool stopped_ = false;
};

/// Hot-loop guard: propagates a tripped context as its non-OK `Status`.
/// Use in functions returning `Status` or `Result<T>`; stages returning
/// plain structs record `ctx->Check()` in their result instead.
#define DEPMINER_CHECK_RUN(ctx)                          \
  do {                                                   \
    const ::depminer::RunContext* _run_ctx = (ctx);      \
    if (_run_ctx != nullptr && _run_ctx->limited()) {    \
      ::depminer::Status _run_st = _run_ctx->Check();    \
      if (!_run_st.ok()) return _run_st;                 \
    }                                                    \
  } while (false)

}  // namespace depminer
