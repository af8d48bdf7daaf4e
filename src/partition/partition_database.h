#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/attribute_set.h"
#include "common/run_context.h"
#include "partition/stripped_partition.h"
#include "relation/relation.h"

namespace depminer {

/// The stripped partition database r̂ = ⋃_{A∈R} π̂_A (paper §3.1): one
/// stripped partition per attribute. This is the *only* representation the
/// Dep-Miner algorithms read — after construction the relation itself is
/// no longer touched (the paper's "database accesses are only performed
/// during the computation of agree sets").
class StrippedPartitionDatabase {
 public:
  StrippedPartitionDatabase() = default;

  /// Extracts r̂ from a relation in one pass per attribute. Attributes
  /// are processed on up to `num_threads` threads (independent columns;
  /// identical output for any thread count).
  static StrippedPartitionDatabase FromRelation(const Relation& relation,
                                                size_t num_threads = 1);

  /// Assembles r̂ from already-built per-attribute stripped partitions
  /// (the checkpoint decoder's path; see storage/checkpoint.h). Every
  /// partition must be over the same `num_tuples` universe.
  static StrippedPartitionDatabase FromParts(
      std::vector<StrippedPartition> partitions, size_t num_tuples);

  size_t num_attributes() const { return partitions_.size(); }
  size_t num_tuples() const { return num_tuples_; }

  const StrippedPartition& partition(AttributeId a) const {
    return partitions_[a];
  }
  const std::vector<StrippedPartition>& partitions() const {
    return partitions_;
  }

  /// Total number of stored (tuple, class) memberships — the size of the
  /// reduced representation; reported by bench statistics.
  size_t TotalMemberships() const;

 private:
  std::vector<StrippedPartition> partitions_;
  size_t num_tuples_ = 0;
};

/// Tuple-major class labels over a stripped partition database: for every
/// tuple t and attribute a, the 1-based id of t's class within π̂_a (0 for
/// stripped-away singletons). Each tuple's labels are contiguous and
/// padded with zeros to whole 64-byte cache lines, so Algorithm 2's
/// per-couple step — which attributes' classes hold both tuples — costs
/// two row loads and one compare (`Agree`), and Lemma 1's maximal-class
/// test screens every attribute at once. Size is num_tuples × stride()
/// uint32s; `bytes()` is what memory budgets should be charged.
class ClassLabelTable {
 public:
  /// Labels per 64-byte cache line; rows are padded to a multiple of it.
  static constexpr size_t kLabelsPerLine = 16;

  ClassLabelTable() = default;

  /// Labels every partition of `db` on up to `num_threads` pool lanes
  /// (identical output for any thread count).
  static ClassLabelTable Build(const StrippedPartitionDatabase& db,
                               size_t num_threads = 1);

  /// `bytes()` of the table `Build(db)` returns, known before building it.
  static size_t BytesFor(const StrippedPartitionDatabase& db);

  /// Tuple `t`'s labels, indexed by attribute (stride() entries).
  const uint32_t* Labels(TupleId t) const {
    return labels_.data() + first_ + static_cast<size_t>(t) * stride_;
  }
  uint32_t Label(TupleId t, AttributeId a) const { return Labels(t)[a]; }

  /// The attributes on which tuples `t` and `u` share a stripped class —
  /// their agree set ag(t, u), since equal values of a non-singleton
  /// class are exactly equal labels ≠ 0. Written so the default build
  /// auto-vectorizes the compare: one byte per attribute, then eight
  /// bytes fold into eight bits with one multiply.
  AttributeSet Agree(TupleId t, TupleId u) const {
    const uint32_t* x = Labels(t);
    const uint32_t* y = Labels(u);
    uint8_t match[AttributeSet::kMaxAttributes];
    for (size_t i = 0; i < stride_; ++i) {
      match[i] = static_cast<uint8_t>((x[i] == y[i]) & (x[i] != 0));
    }
    uint64_t words[AttributeSet::kWords] = {0, 0};
    for (size_t i = 0; i < stride_; i += 8) {
      uint64_t bytes = 0;
      for (size_t k = 0; k < 8; ++k) {
        bytes |= static_cast<uint64_t>(match[i + k]) << (8 * k);
      }
      // Bit 0 of byte k lands on bit 56 + k; no two partial products meet.
      words[i / 64] |= ((bytes * 0x0102040810204080ull) >> 56) << (i % 64);
    }
    return AttributeSet::FromWords(words[0], words[1]);
  }

  size_t num_tuples() const { return num_tuples_; }
  size_t num_attributes() const { return num_attributes_; }
  /// Labels per tuple row: num_attributes() rounded up to whole lines.
  size_t stride() const { return stride_; }
  size_t bytes() const { return labels_.size() * sizeof(uint32_t); }

 private:
  static size_t StrideFor(size_t num_attributes);
  /// Row storage; rows start at `first_`, the first cache-line boundary.
  std::vector<uint32_t> labels_;
  size_t first_ = 0;
  size_t stride_ = kLabelsPerLine;
  size_t num_tuples_ = 0;
  size_t num_attributes_ = 0;
};

/// A memoized, byte-budgeted LRU cache of stripped-partition products
/// π̂_X over a fixed StrippedPartitionDatabase. TANE level products, AFD
/// error probes and the top-k redundancy ranking all need π̂_X for
/// attribute sets that recur across runs and probes; without a cache each
/// consumer recomputes the product chain from the per-attribute
/// partitions every time.
///
/// Entries are shared (`shared_ptr<const StrippedPartition>`), keyed by
/// attribute set, and evicted least-recently-used once `max_bytes` is
/// exceeded. Resident bytes are charged to the configured RunContext's
/// memory budget; when that context trips (budget, deadline or
/// cancellation — observed at the next insert) the cache releases every
/// charged byte and *degrades*: lookups miss, `Get` keeps computing
/// products uncached, and results stay exactly as correct as before —
/// degradation trades speed, never answers. The `alloc/partition_cache`
/// fault site models the cache's charge failing to allocate.
///
/// Thread safety: all operations lock one internal mutex. Cached values
/// are deterministic functions of the base database, so concurrent
/// hit/miss interleavings cannot change what any caller observes.
class PartitionCache {
 public:
  struct Config {
    /// Resident-byte ceiling before LRU eviction. The default fits the
    /// paper-scale grid's level-2 TANE lattices with room to spare.
    size_t max_bytes = size_t{256} << 20;
    /// Optional governance: resident bytes are charged here, and a trip
    /// degrades the cache (see class comment). nullptr = ungoverned.
    RunContext* run_context = nullptr;
  };

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t inserts = 0;
    size_t evictions = 0;
    size_t bytes = 0;  ///< currently resident
    bool degraded = false;

    double HitRate() const {
      const size_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// `base` must outlive the cache; its per-attribute partitions are the
  /// (free, never-evicted) level-1 layer every product chain starts from.
  explicit PartitionCache(const StrippedPartitionDatabase* base);
  PartitionCache(const StrippedPartitionDatabase* base, Config config);
  ~PartitionCache();
  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  const StrippedPartitionDatabase& base() const { return *base_; }

  /// π̂_X, computed on a miss by extending the longest cached prefix of
  /// X's attribute chain one product at a time (each intermediate prefix
  /// is inserted, so nearby probes reuse it). Returns nullptr only for
  /// the empty set. Always returns the correct partition, cached or not.
  std::shared_ptr<const StrippedPartition> Get(const AttributeSet& x);

  /// Pure lookup: the cached π̂_X or nullptr, never computes. Single
  /// attributes always hit (they alias the base database).
  std::shared_ptr<const StrippedPartition> Lookup(const AttributeSet& x);

  /// Offers an externally computed π̂_X (e.g. a TANE level product) to
  /// the cache; ownership is shared, nothing is copied. Dropped without
  /// effect when degraded or larger than the whole budget.
  void Insert(const AttributeSet& x,
              std::shared_ptr<const StrippedPartition> partition);

  Stats stats() const;

  /// Records hits/misses/inserts/evictions and the hit rate as trace
  /// counters (docs/OBSERVABILITY.md). Call once at the end of the
  /// consuming phase.
  void EmitTraceCounters() const;

 private:
  struct Entry {
    std::shared_ptr<const StrippedPartition> partition;
    size_t bytes = 0;
    std::list<AttributeSet>::iterator lru_it;
  };

  static size_t EntryBytes(const StrippedPartition& partition);
  /// Lookup + LRU refresh; no stats. Caller holds `mutex_`.
  std::shared_ptr<const StrippedPartition> FindLocked(const AttributeSet& x);
  /// Evicts LRU entries until `extra` more bytes fit. Caller holds it.
  void EvictForLocked(size_t extra);
  /// Releases everything and enters degraded mode. Caller holds it.
  void DegradeLocked();

  const StrippedPartitionDatabase* base_;
  const Config config_;
  mutable std::mutex mutex_;
  std::list<AttributeSet> lru_;  ///< front = most recently used
  std::unordered_map<AttributeSet, Entry, AttributeSetHash> entries_;
  Stats stats_;
};

}  // namespace depminer
