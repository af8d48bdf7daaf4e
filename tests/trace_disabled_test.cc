/// Compiled with DEPMINER_TRACING_ENABLED=0 (see tests/CMakeLists.txt)
/// against the regular, tracing-enabled library — exactly the mixed-TU
/// situation the header's design permits: one class definition in both
/// modes, only the macro expansions differ. Verifies that in a disabled
/// translation unit the DEPMINER_TRACE_* sites emit nothing, leave their
/// arguments unevaluated, and that PhaseTimer still times phases.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <type_traits>

#include "common/progress.h"

#if DEPMINER_TRACING_ENABLED
#error "trace_disabled_test must compile with DEPMINER_TRACING_ENABLED=0"
#endif

namespace depminer {
namespace {

uint64_t g_side_effects = 0;

uint64_t CountSideEffect() {
  ++g_side_effects;
  return 1;
}

TEST(TraceDisabled, MacrosEmitNothingIntoAnActiveSession) {
  TraceSession session;
  session.Start();
  {
    DEPMINER_TRACE_SPAN(span, "disabled/span");
    span.SetValue(42);  // NoopSpan::SetValue compiles and does nothing
    DEPMINER_TRACE_COUNTER("disabled.counter", 7);
    DEPMINER_TRACE_GAUGE_MAX("disabled.gauge", 7);
  }
  session.Stop();
  EXPECT_TRUE(session.events().empty());
  EXPECT_TRUE(session.counters().empty());
  EXPECT_TRUE(session.gauges().empty());
}

TEST(TraceDisabled, MacroArgumentsAreNotEvaluated) {
  TraceSession session;
  session.Start();
  g_side_effects = 0;
  DEPMINER_TRACE_COUNTER("disabled.counter", CountSideEffect());
  DEPMINER_TRACE_GAUGE_MAX("disabled.gauge", CountSideEffect());
  session.Stop();
  EXPECT_EQ(g_side_effects, 0u);
}

TEST(TraceDisabled, PhaseTimerStillTimes) {
  // Phase stats feed the profile JSON regardless of the tracing switch, so
  // the timer keeps timing; only its span is gated.
  double seconds = 0.0;
  {
    PhaseTimer t("phase/disabled", &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(seconds, 0.0);
}

TEST(TraceDisabled, SpanMacroExpandsToNoopType) {
  DEPMINER_TRACE_SPAN(span, "disabled/type_check");
  static_assert(std::is_same_v<decltype(span), NoopSpan>,
                "disabled TU must instantiate NoopSpan, not Span");
  span.SetValue(0);
}

TEST(TraceDisabled, HistogramMacrosEmitNothing) {
  TraceSession session;
  session.Start();
  g_side_effects = 0;
  DEPMINER_TRACE_HISTOGRAM("disabled_hist/all", CountSideEffect());
  {
    DEPMINER_TRACE_HIST_TIMER(timer, "disabled_probe_ns/miss");
    timer.SetName("disabled_probe_ns/hit");
  }
  session.Stop();
  EXPECT_EQ(g_side_effects, 0u);
  EXPECT_TRUE(session.histograms().empty());
}

TEST(TraceDisabled, HistTimerMacroExpandsToNoopType) {
  DEPMINER_TRACE_HIST_TIMER(timer, "disabled/type_check");
  static_assert(std::is_same_v<decltype(timer), NoopHistogramTimer>,
                "disabled TU must instantiate NoopHistogramTimer");
  timer.SetName("still/a/noop");
}

TEST(TraceDisabled, ProgressMacrosEmitNothingAndSkipArguments) {
  EnableProgressTracking(true);
  g_side_effects = 0;
  DEPMINER_PROGRESS_PHASE("disabled", "units", CountSideEffect());
  DEPMINER_PROGRESS_TICK(CountSideEffect());
  DEPMINER_PROGRESS_TOTAL(CountSideEffect());
  EXPECT_EQ(g_side_effects, 0u);
  const ProgressSnapshot snap = CurrentProgress();
  // The runtime API still works (the library is instrumented); only this
  // TU's macro sites fold away, so the phase never became "disabled".
  EXPECT_STRNE(snap.phase, "disabled");
  EnableProgressTracking(false);
}

}  // namespace
}  // namespace depminer
