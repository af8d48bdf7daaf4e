#pragma once

#include <cstdint>
#include <vector>

#include "common/attribute_set.h"
#include "common/run_context.h"
#include "partition/partition_database.h"
#include "relation/relation.h"

namespace depminer {

/// The result of an agree-set computation.
///
/// `sets` holds the distinct non-empty agree sets of the relation.
/// `contains_empty` records whether ∅ ∈ ag(r), i.e. whether some pair of
/// tuples disagrees on every attribute. The couple-based algorithms never
/// *enumerate* such pairs (they share no stripped equivalence class), but
/// their existence is detectable by comparing the number of distinct
/// couples against C(|r|, 2); the empty agree set matters for maximal-set
/// derivation when an attribute has no other agreeing pair.
struct AgreeSetResult {
  std::vector<AttributeSet> sets;
  bool contains_empty = false;
  size_t num_tuples = 0;
  size_t num_attributes = 0;

  /// Statistics for the bench harness.
  size_t couples_examined = 0;
  size_t chunks_processed = 1;
  /// High-water estimate (bytes) of the algorithm's dominant working
  /// structures — the class-label table plus the couple keys and their
  /// radix-sort scratch (Algorithm 2), or the couple keys, sort scratch,
  /// ec(t) identifier lists and per-couple agree sets (Algorithm 3). The
  /// memory counterpart of TANE's `peak_partition_bytes`; see
  /// EXPERIMENTS.md.
  size_t working_bytes = 0;

  /// OK for a completed computation. When the governing `RunContext`
  /// trips mid-phase (deadline, cancellation, memory budget) the
  /// algorithms stop at the next chunk/couple-batch boundary and return
  /// here with the tripping status; `sets` then holds only the agree sets
  /// of the couples processed so far.
  Status status;

  /// All agree sets including ∅ if present — the paper's ag(r).
  std::vector<AttributeSet> All() const;
};

/// Options for the couple-based Algorithm 2 and the identifier-based
/// Algorithm 3.
struct AgreeSetOptions {
  /// Maximum number of couples materialized at once (the paper's memory
  /// threshold, §3.1: "computing agree sets as soon as a fixed number of
  /// couples was generated"). 0 means unlimited. Algorithm 2 only.
  size_t max_couples_per_chunk = 0;
  /// Ablation switch: when false, couples are enumerated from *every*
  /// stripped equivalence class rather than only the maximal ones,
  /// quantifying the benefit of the paper's MC pruning. Results are
  /// identical (couples are deduplicated); only work changes.
  bool use_maximal_classes = true;
  /// Pool lanes for the label table, the maximal-class test, couple
  /// enumeration and the per-couple agree-set loops. 1 = serial. Results
  /// are bit-identical for any value: couples are split into
  /// deterministic contiguous ranges and per-morsel accumulators are
  /// merged in slot order before the final sort/dedup.
  size_t num_threads = 1;
  /// Optional resource governance: checked once per chunk (Algorithm 2)
  /// or every few thousand couples per lane (Algorithm 3); the working
  /// structures of `AgreeSetResult::working_bytes` are charged against
  /// its memory budget.
  RunContext* run_context = nullptr;
};

/// Maximal equivalence classes MC = Max⊆{c ∈ π̂_A : π̂_A ∈ r̂} (paper §3.1),
/// largest first, then lexicographic. Couples of tuples that can have a
/// non-empty agree set live inside these classes (Lemma 1). Each class is
/// tested against the `ClassLabelTable`: it is dominated iff some other
/// attribute labels all of its tuples alike, with a larger class or an
/// equal one of a smaller attribute (so equal classes are kept once).
/// The tests split over `num_threads` pool lanes (identical output for
/// any value).
std::vector<EquivalenceClass> MaximalEquivalenceClasses(
    const StrippedPartitionDatabase& db, size_t num_threads = 1);

/// Reference implementation: ag(ti, tj) for every pair of tuples —
/// O(n·p²). Used as an oracle and as the "naive algorithm" baseline the
/// paper argues against. `ctx` is checked once per outer tuple.
AgreeSetResult ComputeAgreeSetsNaive(const Relation& relation,
                                     RunContext* ctx = nullptr);

/// Paper Algorithm 2 (AGREE_SET): generate the couples inside maximal
/// equivalence classes, then add attribute A to ag(t, t') for every
/// couple found together in one of π̂_A's classes. The scan runs over the
/// `ClassLabelTable`, one padded row per tuple, so a couple's agree set is
/// one compare of two rows; each morsel keeps only the distinct sets it
/// meets. Processes couples in bounded chunks per
/// `options.max_couples_per_chunk`.
AgreeSetResult ComputeAgreeSetsCouples(const StrippedPartitionDatabase& db,
                                       const AgreeSetOptions& options = {});

/// Paper Algorithm 3 (AGREE_SET 2): build ec(t) = identifiers of the
/// stripped classes containing t, then ag(t, t') = attributes of
/// ec(t) ∩ ec(t') (Lemma 2). More efficient when couples are numerous.
/// The couple-key range is split across `options.num_threads` lanes with
/// per-lane result vectors merged in slot order (chunking options do not
/// apply).
AgreeSetResult ComputeAgreeSetsIdentifiers(const StrippedPartitionDatabase& db,
                                           const AgreeSetOptions& options);

/// Convenience overload governing the run with just a context (serial).
AgreeSetResult ComputeAgreeSetsIdentifiers(const StrippedPartitionDatabase& db,
                                           RunContext* ctx = nullptr);

/// Selects which agree-set algorithm a `DepMiner` run uses.
enum class AgreeSetAlgorithm {
  kNaive,        ///< all-pairs reference (small inputs only)
  kCouples,      ///< Algorithm 2 — the evaluation's "Dep-Miner"
  kIdentifiers,  ///< Algorithm 3 — the evaluation's "Dep-Miner 2"
};

const char* ToString(AgreeSetAlgorithm algorithm);

}  // namespace depminer
