#include "core/agree_sets.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "common/parallel.h"
#include "common/progress.h"
#include "common/trace.h"
#include "fault/fault.h"

namespace depminer {

namespace {

/// Stripped classes as views into the database: the family couples are
/// drawn from. Nothing is copied on the Algorithm 2 path.
using ClassRefs = std::vector<ClassView>;

/// True iff stripped class `c` of attribute `a` is not in MC: it lies
/// strictly inside another stripped class, or equals one of a smaller
/// attribute (equal classes keep one copy, the smallest attribute's).
/// Decided from the label table alone: c ⊆ some class of B ≠ a iff B's
/// label is one nonzero value across all of c.
bool Dominated(const StrippedPartitionDatabase& db,
               const ClassLabelTable& labels, AttributeId a, ClassView c) {
  // Screen every candidate B at once on c's first tuples: one compare
  // per tuple keeps the B whose class of c[0] also holds that tuple, and
  // most classes run out of candidates after a tuple or two.
  AttributeSet candidates = labels.Agree(c[0], c[1]);
  candidates.Remove(a);
  for (size_t k = 2; k < c.size() && !candidates.Empty(); ++k) {
    candidates = candidates.Intersect(labels.Agree(c[0], c[k]));
  }
  if (candidates.Empty()) return false;
  // c ⊆ the class of every surviving B: a smaller attribute dominates
  // whether its class is equal or larger; a larger one only if larger.
  if (candidates.Min() < a) return true;
  bool dominated = false;
  candidates.ForEach([&](AttributeId b) {
    const uint32_t label = labels.Label(c[0], b);
    if (db.partition(b).classes()[label - 1].size() > c.size()) {
      dominated = true;
    }
  });
  return dominated;
}

/// The maximal equivalence classes MC = Max⊆{c ∈ π̂_A : π̂_A ∈ r̂} (paper
/// §3.1, Lemma 1), in (attribute, class) order. Each class's test is
/// independent, so the classes split into morsels across pool lanes.
ClassRefs MaximalClasses(const StrippedPartitionDatabase& db,
                         const ClassLabelTable& labels, size_t num_threads) {
  DEPMINER_TRACE_SPAN(span, "agree/maximal_classes");
  std::vector<std::pair<ClassView, AttributeId>> all;
  for (AttributeId a = 0; a < db.num_attributes(); ++a) {
    for (const ClassView c : db.partition(a).classes()) all.emplace_back(c, a);
  }
  std::vector<char> keep(all.size(), 0);
  const MorselPlan plan(0, all.size(), num_threads);
  ParallelFor(0, plan.count, num_threads, [&](size_t m) {
    for (size_t i = plan.lo(m); i < plan.hi(m); ++i) {
      keep[i] = !Dominated(db, labels, all[i].second, all[i].first);
    }
  });
  ClassRefs kept;
  for (size_t i = 0; i < all.size(); ++i) {
    if (keep[i]) kept.push_back(all[i].first);
  }
  span.SetValue(kept.size());
  return kept;
}

/// Every stripped class of every attribute: the ablation measuring what
/// MC pruning buys.
ClassRefs AllClasses(const StrippedPartitionDatabase& db) {
  ClassRefs all;
  for (const StrippedPartition& p : db.partitions()) {
    for (const ClassView c : p.classes()) all.push_back(c);
  }
  return all;
}

/// Sorts packed couple keys by LSD radix over 8-bit digits, skipping the
/// digits that are constant over all keys: below 2^16 tuples only four of
/// the eight vary.
void RadixSort(std::vector<uint64_t>* keys) {
  if (keys->size() < 2) return;
  uint64_t varying = 0;
  const uint64_t first = keys->front();
  for (const uint64_t key : *keys) varying |= key ^ first;
  std::vector<uint64_t> scratch(keys->size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<size_t, 256> offsets{};
    for (const uint64_t key : *keys) ++offsets[(key >> shift) & 0xFF];
    size_t sum = 0;
    for (size_t& offset : offsets) {
      const size_t count = offset;
      offset = sum;
      sum += count;
    }
    for (const uint64_t key : *keys) {
      scratch[offsets[(key >> shift) & 0xFF]++] = key;
    }
    keys->swap(scratch);
  }
}

/// Where each class of a family writes its couples in the generated key
/// array: class i's n(n-1)/2 couples start at offsets[i], and back() is
/// the number of keys generated, known before any is written.
std::vector<size_t> CoupleOffsets(const ClassRefs& classes) {
  std::vector<size_t> offsets(classes.size() + 1, 0);
  for (size_t i = 0; i < classes.size(); ++i) {
    const size_t n = classes[i].size();
    offsets[i + 1] = offsets[i] + n * (n - 1) / 2;
  }
  return offsets;
}

/// The distinct couples of tuples inside a class family, as packed
/// (lo << 32 | hi) keys in increasing order; the same couple may lie in
/// several (overlapping) classes and is kept once — "couples" is a set in
/// the paper's Algorithm 2. Each class writes its couples at its offset
/// on the pool; deduplication is a radix sort plus unique, so the output
/// is the same at any thread count.
std::vector<uint64_t> DistinctCouples(const ClassRefs& classes,
                                      const std::vector<size_t>& offsets,
                                      size_t num_threads) {
  std::vector<uint64_t> keys(offsets.back());
  ParallelFor(0, classes.size(), num_threads, [&](size_t ci) {
    uint64_t* dst = keys.data() + offsets[ci];
    const ClassView c = classes[ci];
    // Tuple ids increase within a class, so c[i] is the couple's lo.
    for (size_t i = 0; i < c.size(); ++i) {
      const uint64_t lo = static_cast<uint64_t>(c[i]) << 32;
      for (size_t j = i + 1; j < c.size(); ++j) *dst++ = lo | c[j];
    }
  });
  RadixSort(&keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// The distinct agree sets one morsel meets, in first-seen order, behind
/// an open-addressing index. Few distinct sets arise among many couples
/// (104 among 375k at the paper's 25k-tuple point), so the index stays
/// small and hot; a couple repeating the previous couple's set skips the
/// probe.
class AgreeSetCollector {
 public:
  void Add(const AttributeSet& set) {
    if (!sets_.empty() && set == last_) return;
    last_ = set;
    if (2 * (sets_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = AttributeSetHash()(set) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        sets_.push_back(set);
        slots_[i] = static_cast<uint32_t>(sets_.size());
        return;
      }
      if (sets_[slots_[i] - 1] == set) return;
    }
  }

  std::vector<AttributeSet> Take() && { return std::move(sets_); }

 private:
  void Grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (uint32_t k = 0; k < sets_.size(); ++k) {
      size_t i = AttributeSetHash()(sets_[k]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = k + 1;
    }
  }

  std::vector<AttributeSet> sets_;
  std::vector<uint32_t> slots_;  ///< 0 = vacant, else index into sets_ + 1
  AttributeSet last_;
};

/// Deduplicates an agree-set accumulation buffer in place (word-order
/// sort + unique — cheaper than hashing at these volumes).
void DedupSets(std::vector<AttributeSet>* sets) {
  std::sort(sets->begin(), sets->end());
  sets->erase(std::unique(sets->begin(), sets->end()), sets->end());
}

void FinalizeSets(std::vector<AttributeSet>&& distinct,
                  AgreeSetResult* result) {
  DedupSets(&distinct);
  result->sets = std::move(distinct);
  SortSets(&result->sets);
}

/// ∅ ∈ ag(r) iff some pair of tuples co-occurs in *no* stripped class,
/// which is exactly: fewer distinct couples than total pairs (Lemma 1
/// covers all pairs with a non-empty agree set).
bool EmptyAgreeSetPresent(size_t num_tuples, size_t distinct_couples) {
  if (num_tuples < 2) return false;
  const uint64_t total_pairs =
      static_cast<uint64_t>(num_tuples) * (num_tuples - 1) / 2;
  return distinct_couples < total_pairs;
}

/// The tripping status after a parallel stage observed `stopped`:
/// whatever the context reports, with a cancellation fallback for the
/// (theoretical) race where the trip is no longer observable.
Status TripStatus(const RunContext* ctx) {
  if (ctx != nullptr) {
    Status st = ctx->Check();
    if (!st.ok()) return st;
  }
  return Status::Cancelled("agree-set computation interrupted");
}

/// Charges `bytes` before the phase allocates them and checks the
/// budget, so a run that cannot afford them stops before allocating.
/// The phase's first charge, which r̂ alone fixes, is also where it polls
/// its one `alloc/agree` site.
Status ChargeBeforeBuilding(ScopedMemoryCharge* memory, size_t bytes,
                            RunContext* ctx) {
  memory->Set(bytes);
  return ctx != nullptr && ctx->limited() ? ctx->Check() : Status::OK();
}

}  // namespace

std::vector<AttributeSet> AgreeSetResult::All() const {
  std::vector<AttributeSet> out = sets;
  if (contains_empty) out.insert(out.begin(), AttributeSet());
  return out;
}

const char* ToString(AgreeSetAlgorithm algorithm) {
  switch (algorithm) {
    case AgreeSetAlgorithm::kNaive:
      return "naive";
    case AgreeSetAlgorithm::kCouples:
      return "couples";       // the paper's "Dep-Miner"
    case AgreeSetAlgorithm::kIdentifiers:
      return "identifiers";   // the paper's "Dep-Miner 2"
  }
  return "unknown";
}

std::vector<EquivalenceClass> MaximalEquivalenceClasses(
    const StrippedPartitionDatabase& db, size_t num_threads) {
  const ClassLabelTable labels = ClassLabelTable::Build(db, num_threads);
  ClassRefs kept = MaximalClasses(db, labels, num_threads);
  // Largest first, then lexicographic: one canonical order for callers
  // that compare or print MC.
  ParallelSort(kept.begin(), kept.end(), num_threads,
               [](ClassView a, ClassView b) {
                 if (a.size() != b.size()) return a.size() > b.size();
                 return std::lexicographical_compare(a.begin(), a.end(),
                                                     b.begin(), b.end());
               });
  std::vector<EquivalenceClass> out;
  out.reserve(kept.size());
  for (const ClassView c : kept) out.emplace_back(c.begin(), c.end());
  return out;
}

AgreeSetResult ComputeAgreeSetsNaive(const Relation& relation,
                                     RunContext* ctx) {
  AgreeSetResult result;
  result.num_tuples = relation.num_tuples();
  result.num_attributes = relation.num_attributes();

  std::vector<AttributeSet> distinct;
  const size_t p = relation.num_tuples();
  for (TupleId i = 0; i < p; ++i) {
    if (ctx != nullptr && ctx->limited()) {
      result.status = ctx->Check();
      if (!result.status.ok()) break;
    }
    for (TupleId j = i + 1; j < p; ++j) {
      ++result.couples_examined;
      const AttributeSet ag = relation.AgreeSetOf(i, j);
      if (ag.Empty()) {
        result.contains_empty = true;
      } else {
        distinct.push_back(ag);
      }
    }
  }
  FinalizeSets(std::move(distinct), &result);
  DEPMINER_TRACE_COUNTER("agree.couples", result.couples_examined);
  DEPMINER_TRACE_COUNTER("agree.sets", result.sets.size());
  return result;
}

AgreeSetResult ComputeAgreeSetsCouples(const StrippedPartitionDatabase& db,
                                       const AgreeSetOptions& options) {
  AgreeSetResult result;
  result.num_tuples = db.num_tuples();
  result.num_attributes = db.num_attributes();
  result.chunks_processed = 0;

  const size_t num_threads = std::max<size_t>(1, options.num_threads);
  RunContext* ctx = options.run_context;
  ScopedMemoryCharge memory(ctx);
  result.working_bytes = ClassLabelTable::BytesFor(db);
  DEPMINER_FAULT_ALLOC("alloc/agree", ctx);
  result.status = ChargeBeforeBuilding(&memory, result.working_bytes, ctx);
  if (!result.status.ok()) return result;

  // Each tuple's class labels, one padded row per tuple: MC and every
  // couple's agree set are both read off this one table.
  const ClassLabelTable labels = [&] {
    DEPMINER_TRACE_SPAN(labels_span, "agree/labels");
    return ClassLabelTable::Build(db, num_threads);
  }();

  // Materialize the distinct couples (Algorithm 2 lines 4-9), from the
  // maximal classes or — for the ablation — from every class.
  std::vector<uint64_t> keys;
  {
    const ClassRefs sources = options.use_maximal_classes
                                  ? MaximalClasses(db, labels, num_threads)
                                  : AllClasses(db);
    const std::vector<size_t> offsets = CoupleOffsets(sources);
    // The working set at its high-water mark, couple deduplication: the
    // label table, the generated couple keys and the radix sort's
    // scratch copy of them. The scan below adds only each morsel's
    // distinct sets.
    result.working_bytes =
        labels.bytes() + 2 * offsets.back() * sizeof(uint64_t);
    result.status = ChargeBeforeBuilding(&memory, result.working_bytes, ctx);
    if (!result.status.ok()) return result;
    DEPMINER_TRACE_SPAN(couples_span, "agree/couples");
    keys = DistinctCouples(sources, offsets, num_threads);
    couples_span.SetValue(keys.size());
  }
  const size_t total_couples = keys.size();
  result.couples_examined = total_couples;
  DEPMINER_TRACE_COUNTER("agree.couples", total_couples);
  DEPMINER_PROGRESS_PHASE("agree", "couples", total_couples);

  const size_t chunk_size = options.max_couples_per_chunk == 0
                                ? std::max<size_t>(total_couples, 1)
                                : options.max_couples_per_chunk;
  std::vector<AttributeSet> distinct;

  for (size_t begin = 0; begin < total_couples; begin += chunk_size) {
    if (ctx != nullptr && ctx->limited()) {
      result.status = ctx->Check();
      if (!result.status.ok()) break;
    }
    const size_t end = std::min(total_couples, begin + chunk_size);
    DEPMINER_TRACE_SPAN(chunk_span, "agree/chunk");
    chunk_span.SetValue(end - begin);

    // Lines 10-18 of the chunk, morselized: the couple range splits into
    // grain-sized morsels pulled dynamically from the pool queue. A
    // couple's agree set is one compare of its two label rows; each
    // morsel keeps only the distinct sets it meets. A morsel's output is
    // a pure function of its sub-range — merging in morsel order keeps
    // the result bit-identical at any thread count, while dynamic
    // claiming keeps lanes busy when couples are skewed.
    const MorselPlan plan(begin, end, num_threads);
    std::vector<std::vector<AttributeSet>> morsel_sets(plan.count);
    std::atomic<bool> stopped{false};
    ParallelFor(
        0, plan.count, num_threads,
        [&](size_t m) {
          const size_t lo = plan.lo(m), hi = plan.hi(m);
          AgreeSetCollector collector;
          StridedStopPoller poll(ctx, 4096);
          for (size_t k = lo; k < hi; ++k) {
            if (poll.StopRequested()) {
              stopped.store(true, std::memory_order_relaxed);
              return;
            }
            collector.Add(labels.Agree(static_cast<TupleId>(keys[k] >> 32),
                                       static_cast<TupleId>(keys[k])));
          }
          morsel_sets[m] = std::move(collector).Take();
          // Batched per morsel, never per couple: one histogram record
          // and one progress tick per grain of work.
          DEPMINER_TRACE_HISTOGRAM("agree_morsel_couples/chunked", hi - lo);
          DEPMINER_PROGRESS_TICK(hi - lo);
        },
        [&stopped] { return stopped.load(std::memory_order_relaxed); });

    if (stopped.load(std::memory_order_relaxed)) {
      // A chunk is all-or-nothing: a morsel that bailed mid-scan has not
      // seen all of its couples, so the whole chunk is discarded and the
      // result keeps only the chunks completed before the trip — the
      // same granularity the serial path degrades at.
      result.status = TripStatus(ctx);
      break;
    }

    // Lines 19-21: fold the chunk's agree sets into ag(r). Couples
    // inside an MC class share at least the class's attribute, so no
    // agree set here is empty. Deduplicating after every chunk keeps the
    // accumulator at O(distinct sets), preserving the bounded-memory
    // property chunking exists for.
    ++result.chunks_processed;
    for (std::vector<AttributeSet>& sets : morsel_sets) {
      distinct.insert(distinct.end(), sets.begin(), sets.end());
    }
    DedupSets(&distinct);
  }

  result.contains_empty = EmptyAgreeSetPresent(db.num_tuples(), total_couples);
  FinalizeSets(std::move(distinct), &result);
  DEPMINER_TRACE_COUNTER("agree.chunks", result.chunks_processed);
  DEPMINER_TRACE_COUNTER("agree.sets", result.sets.size());
  DEPMINER_TRACE_GAUGE_MAX("agree.working_bytes", result.working_bytes);
  return result;
}

AgreeSetResult ComputeAgreeSetsIdentifiers(const StrippedPartitionDatabase& db,
                                           const AgreeSetOptions& options) {
  AgreeSetResult result;
  result.num_tuples = db.num_tuples();
  result.num_attributes = db.num_attributes();

  const size_t num_threads = std::max<size_t>(1, options.num_threads);
  RunContext* ctx = options.run_context;
  // The ec lists and MC's (transient) label table come before any couple.
  ScopedMemoryCharge memory(ctx);
  const size_t ec_bytes = db.TotalMemberships() * sizeof(uint64_t);
  result.working_bytes = ec_bytes + ClassLabelTable::BytesFor(db);
  DEPMINER_FAULT_ALLOC("alloc/agree", ctx);
  result.status = ChargeBeforeBuilding(&memory, result.working_bytes, ctx);
  if (!result.status.ok()) return result;

  // Step 1 (lines 2-8): ec(t), the list of stripped-class identifiers
  // containing t. Built attribute by attribute, so each list is sorted by
  // attribute; identifiers pack (attribute, class index) into one word.
  std::vector<std::vector<uint64_t>> ec(db.num_tuples());
  {
    DEPMINER_TRACE_SPAN(ec_span, "agree/ec_lists");
    for (AttributeId a = 0; a < db.num_attributes(); ++a) {
      const StrippedPartition& part = db.partition(a);
      for (size_t i = 0; i < part.num_classes(); ++i) {
        const uint64_t id = (static_cast<uint64_t>(a) << 32) | i;
        for (TupleId t : part.classes()[i]) ec[t].push_back(id);
      }
    }
  }

  const std::vector<EquivalenceClass> mc =
      MaximalEquivalenceClasses(db, num_threads);
  const ClassRefs mc_refs(mc.begin(), mc.end());

  // The ec lists, the couple keys and the sort's scratch, before any key.
  const std::vector<size_t> offsets = CoupleOffsets(mc_refs);
  result.working_bytes = ec_bytes + 2 * offsets.back() * sizeof(uint64_t);
  result.status = ChargeBeforeBuilding(&memory, result.working_bytes, ctx);
  if (!result.status.ok()) return result;

  // Step 2 (lines 9-14): ag(t, t') from ec(t) ∩ ec(t') by sorted merge.
  DEPMINER_TRACE_SPAN(intersect_span, "agree/intersect");
  const std::vector<uint64_t> keys =
      DistinctCouples(mc_refs, offsets, num_threads);
  const size_t total_couples = keys.size();
  result.couples_examined = total_couples;
  intersect_span.SetValue(total_couples);
  DEPMINER_TRACE_COUNTER("agree.couples", total_couples);
  DEPMINER_PROGRESS_PHASE("agree", "couples", total_couples);
  // ... plus the per-morsel ag buffers.
  result.working_bytes += total_couples * sizeof(AttributeSet);
  memory.Set(result.working_bytes);

  // The couple-key range is morselized: grain-sized sub-ranges pulled
  // dynamically from the pool queue, each intersected into a private
  // per-morsel vector. A morsel's output depends only on its sub-range,
  // so merging in morsel order before the final sort/dedup keeps the
  // result bit-identical at any thread count — and dynamic claiming
  // absorbs the skew sorted couple keys induce (couples of one hot tuple
  // cluster into the same region of the range, with long ec lists). A
  // morsel that observes a tripped context stops at its current couple —
  // its prefix is still valid (every pushed set is a complete ag(t, t')),
  // matching the serial partial-result contract.
  const MorselPlan plan(0, keys.size(), num_threads);
  std::vector<std::vector<AttributeSet>> morsel_sets(plan.count);
  std::atomic<bool> stopped{false};
  ParallelFor(
      0, plan.count, num_threads,
      [&](size_t m) {
        const size_t lo = plan.lo(m), hi = plan.hi(m);
        std::vector<AttributeSet> local;
        local.reserve(hi - lo);
        StridedStopPoller poll(ctx, 4096);
        for (size_t k = lo; k < hi; ++k) {
          if (poll.StopRequested()) {
            stopped.store(true, std::memory_order_relaxed);
            break;
          }
          const uint64_t key = keys[k];
          const std::vector<uint64_t>& x = ec[static_cast<TupleId>(key >> 32)];
          const std::vector<uint64_t>& y =
              ec[static_cast<TupleId>(key & 0xFFFFFFFFu)];
          AttributeSet ag;
          size_t i = 0, j = 0;
          while (i < x.size() && j < y.size()) {
            if (x[i] == y[j]) {
              ag.Add(static_cast<AttributeId>(x[i] >> 32));
              ++i;
              ++j;
            } else if (x[i] < y[j]) {
              ++i;
            } else {
              ++j;
            }
          }
          local.push_back(ag);
        }
        morsel_sets[m] = std::move(local);
        DEPMINER_TRACE_HISTOGRAM("agree_morsel_couples/identifiers", hi - lo);
        DEPMINER_PROGRESS_TICK(hi - lo);
      },
      [&stopped] { return stopped.load(std::memory_order_relaxed); });

  if (stopped.load(std::memory_order_relaxed)) {
    result.status = TripStatus(ctx);
  }

  std::vector<AttributeSet> distinct;
  distinct.reserve(total_couples);
  for (std::vector<AttributeSet>& sets : morsel_sets) {
    distinct.insert(distinct.end(), sets.begin(), sets.end());
  }

  result.contains_empty = EmptyAgreeSetPresent(db.num_tuples(), total_couples);
  FinalizeSets(std::move(distinct), &result);
  DEPMINER_TRACE_COUNTER("agree.sets", result.sets.size());
  DEPMINER_TRACE_GAUGE_MAX("agree.working_bytes", result.working_bytes);
  return result;
}

AgreeSetResult ComputeAgreeSetsIdentifiers(const StrippedPartitionDatabase& db,
                                           RunContext* ctx) {
  AgreeSetOptions options;
  options.run_context = ctx;
  return ComputeAgreeSetsIdentifiers(db, options);
}

}  // namespace depminer
