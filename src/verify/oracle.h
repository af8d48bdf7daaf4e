#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/mine_by_name.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace depminer {

/// What a differential-oracle check found wrong. One relation can produce
/// several divergences; each names the miner configuration it came from.
enum class CheckKind {
  kMinerError,         ///< a miner returned an error on a valid relation
  kMinerDivergence,    ///< two miners' covers are not implication-equal
  kNondeterministic,   ///< same miner, different threads, different output
  kUnsoundFd,          ///< an emitted FD does not hold in the relation
  kTrivialFd,          ///< an emitted FD is trivial (A ∈ X)
  kNotLeftReduced,     ///< an emitted FD's lhs has an extraneous attribute
  kMissedFd,           ///< the quadratic reference oracle finds more
  kDegradedRun,        ///< incoherent partial results under a tripped ctx
  kArmstrongError,     ///< a construction failed for a non-Prop-1 reason
  kArmstrongSize,      ///< |r̄| ≠ |MAX(dep(r))| + 1
  kArmstrongRejected,  ///< IsArmstrongFor says the construction is wrong
  kArmstrongDiverged,  ///< dep(r̄) ≢ dep(r) — the round-trip broke
  kArityDivergence,    ///< capped run ≠ unbounded cover filtered to ≤ k
  kAfdDivergence,      ///< ε = 0 approximate run ≢ the exact cover
};

const char* ToString(CheckKind kind);

/// One verified discrepancy.
struct Divergence {
  CheckKind kind;
  /// Miner configuration, e.g. "tane/8t" or "depminer2/1t"; empty for
  /// relation-level checks (Armstrong round-trip, reference oracle).
  std::string miner;
  std::string detail;

  std::string ToString() const;
};

/// Knobs of `RunDifferentialOracle`.
struct OracleOptions {
  /// Pool-lane counts each thread-aware miner runs at; outputs must be
  /// identical across them (the library's determinism guarantee).
  std::vector<size_t> thread_counts{1, 2, 8};
  /// Re-run every miner under pre-tripped RunContexts (cancelled, expired
  /// deadline, exhausted memory budget) and check coherent degradation:
  /// value-not-error returns, matching status codes, sound partial FDs,
  /// thread-count-independent partial output.
  bool check_tripped_contexts = true;
  /// Armstrong round-trip: dep(r̄) ≡ dep(r), |r̄| = |MAX|+1,
  /// `IsArmstrongFor` agrees — for the synthetic and (when Proposition 1
  /// admits one) the real-world construction.
  bool check_armstrong = true;
  /// Cross-check the cover against `NaiveFdDiscovery` when the relation
  /// is small enough (the quadratic/exponential definition; see caps).
  bool check_reference_oracle = true;
  size_t reference_max_attributes = 8;
  size_t reference_max_tuples = 48;
  /// Pruning cross-checks, per miner: (a) an arity-capped run must equal
  /// the miner's own unbounded output filtered to |lhs| ≤ `arity_cap`
  /// (bit-identical after canonicalization — the cap provably prunes
  /// *before* generation without changing what survives); (b) TANE's
  /// g₃ validation path forced at ε = 0 must be implication-equivalent
  /// to its exact cover (the other miners ignore the flag and must be
  /// unchanged).
  bool check_pruning = true;
  size_t arity_cap = 2;
};

/// Result of one oracle pass over one relation.
struct OracleReport {
  std::vector<Divergence> divergences;
  size_t miner_runs = 0;

  bool ok() const { return divergences.empty(); }
  std::string ToString() const;
};

/// "depminer/4t" for threaded miners, the bare name for serial ones: how
/// the oracle and the fault sweep name a run.
std::string MinerLabel(const MinerSpec& miner, size_t threads);

/// Runs all five miners (Dep-Miner Algorithms 2 and 3, TANE, FastFDs,
/// FDEP) over `relation` — the thread-aware ones at every count in
/// `options.thread_counts` — canonicalizes each output to a sorted
/// minimal cover and diffs the covers by implication (`fd/fd_diff`), then
/// applies the semantic checker and the Armstrong round-trip.
OracleReport RunDifferentialOracle(const Relation& relation,
                                   const OracleOptions& options = {});

/// The semantic checker on its own: every FD of `cover` must hold in
/// `relation`, be non-trivial and left-reduced; when `check_completeness`
/// is set the cover must also imply everything `NaiveFdDiscovery` finds.
/// Appends divergences to `report`. Exposed for tests and the shrinker.
void CheckCoverAgainstRelation(const Relation& relation, const FdSet& cover,
                               const std::string& miner_label,
                               bool check_completeness, OracleReport* report);

}  // namespace depminer
