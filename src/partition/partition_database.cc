#include "partition/partition_database.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/parallel.h"
#include "common/trace.h"
#include "fault/fault.h"
#include "partition/partition_product.h"

namespace depminer {

StrippedPartitionDatabase StrippedPartitionDatabase::FromRelation(
    const Relation& relation, size_t num_threads) {
  StrippedPartitionDatabase db;
  db.num_tuples_ = relation.num_tuples();
  db.partitions_.resize(relation.num_attributes());
  ParallelFor(0, relation.num_attributes(), num_threads, [&](size_t a) {
    db.partitions_[a] =
        StrippedPartition::ForAttribute(relation, static_cast<AttributeId>(a));
  });
  return db;
}

StrippedPartitionDatabase StrippedPartitionDatabase::FromParts(
    std::vector<StrippedPartition> partitions, size_t num_tuples) {
  StrippedPartitionDatabase db;
  db.num_tuples_ = num_tuples;
  db.partitions_ = std::move(partitions);
  return db;
}

size_t StrippedPartitionDatabase::TotalMemberships() const {
  size_t total = 0;
  for (const StrippedPartition& p : partitions_) total += p.CoveredTuples();
  return total;
}

size_t ClassLabelTable::StrideFor(size_t num_attributes) {
  return std::max<size_t>(
             1, (num_attributes + kLabelsPerLine - 1) / kLabelsPerLine) *
         kLabelsPerLine;
}

size_t ClassLabelTable::BytesFor(const StrippedPartitionDatabase& db) {
  return (db.num_tuples() * StrideFor(db.num_attributes()) + kLabelsPerLine) *
         sizeof(uint32_t);
}

ClassLabelTable ClassLabelTable::Build(const StrippedPartitionDatabase& db,
                                       size_t num_threads) {
  ClassLabelTable table;
  table.num_tuples_ = db.num_tuples();
  table.num_attributes_ = db.num_attributes();
  table.stride_ = StrideFor(table.num_attributes_);
  table.labels_.assign(table.num_tuples_ * table.stride_ + kLabelsPerLine, 0);
  const size_t misalign =
      reinterpret_cast<uintptr_t>(table.labels_.data()) %
      (kLabelsPerLine * sizeof(uint32_t));
  table.first_ = misalign == 0 ? 0
                               : (kLabelsPerLine * sizeof(uint32_t) - misalign) /
                                     sizeof(uint32_t);

  // Morselized over (attribute, class-range) units instead of one unit
  // per attribute: a whole-attribute split leaves lanes idle whenever one
  // attribute's partition is much denser than the rest (the correlated
  // benchmark schemas are exactly that shape). Units are cut to roughly
  // equal *membership* counts — the work is one store per membership —
  // and each unit writes a disjoint set of cells (classes within a
  // stripped partition are disjoint, columns are per-attribute), so the
  // table is identical for any thread count and scheduling order. The
  // label of class i is always i + 1, independent of the cut points.
  struct Unit {
    AttributeId attr;
    uint32_t class_lo, class_hi;
  };
  const size_t target = std::max<size_t>(
      4096, db.TotalMemberships() /
                (8 * std::clamp<size_t>(num_threads, 1, kMaxPoolWorkers)));
  std::vector<Unit> units;
  for (AttributeId a = 0; a < db.num_attributes(); ++a) {
    const StrippedPartition::Classes classes = db.partition(a).classes();
    uint32_t lo = 0;
    size_t acc = 0;
    for (uint32_t i = 0; i < classes.size(); ++i) {
      acc += classes[i].size();
      if (acc >= target) {
        units.push_back({a, lo, i + 1});
        lo = i + 1;
        acc = 0;
      }
    }
    if (lo < classes.size()) {
      units.push_back({a, lo, static_cast<uint32_t>(classes.size())});
    }
  }

  uint32_t* const rows = table.labels_.data() + table.first_;
  const size_t stride = table.stride_;
  ParallelFor(0, units.size(), num_threads, [&](size_t u) {
    const Unit& unit = units[u];
    const StrippedPartition::Classes classes =
        db.partition(unit.attr).classes();
    for (uint32_t i = unit.class_lo; i < unit.class_hi; ++i) {
      const uint32_t id = i + 1;
      for (TupleId t : classes[i]) {
        rows[static_cast<size_t>(t) * stride + unit.attr] = id;
      }
    }
  });
  return table;
}

PartitionCache::PartitionCache(const StrippedPartitionDatabase* base)
    : PartitionCache(base, Config()) {}

PartitionCache::PartitionCache(const StrippedPartitionDatabase* base,
                               Config config)
    : base_(base), config_(std::move(config)) {}

PartitionCache::~PartitionCache() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.run_context != nullptr && stats_.bytes != 0) {
    config_.run_context->ReleaseBytes(stats_.bytes);
  }
}

size_t PartitionCache::EntryBytes(const StrippedPartition& partition) {
  return sizeof(StrippedPartition) +
         (partition.num_classes() + 1) * sizeof(uint32_t) +
         partition.CoveredTuples() * sizeof(TupleId);
}

std::shared_ptr<const StrippedPartition> PartitionCache::FindLocked(
    const AttributeSet& x) {
  auto it = entries_.find(x);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.partition;
}

void PartitionCache::EvictForLocked(size_t extra) {
  while (!lru_.empty() && stats_.bytes + extra > config_.max_bytes) {
    auto victim = entries_.find(lru_.back());
    stats_.bytes -= victim->second.bytes;
    if (config_.run_context != nullptr) {
      config_.run_context->ReleaseBytes(victim->second.bytes);
    }
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PartitionCache::DegradeLocked() {
  if (config_.run_context != nullptr && stats_.bytes != 0) {
    config_.run_context->ReleaseBytes(stats_.bytes);
  }
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
  stats_.degraded = true;
}

std::shared_ptr<const StrippedPartition> PartitionCache::Lookup(
    const AttributeSet& x) {
  if (x.Count() == 1) {
    // The base database is the permanent level-1 layer: alias it (the
    // empty deleter shares no ownership; base_ outlives the cache by
    // contract).
    AttributeId a = 0;
    x.ForEach([&a](AttributeId id) { a = id; });
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return {std::shared_ptr<const void>(), &base_->partition(a)};
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<const StrippedPartition> found = FindLocked(x);
  if (found != nullptr) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return found;
}

void PartitionCache::Insert(const AttributeSet& x,
                            std::shared_ptr<const StrippedPartition> partition) {
  RunContext* ctx = config_.run_context;
  // The charge below is the cache's working-set allocation; a firing
  // fault here models it failing, which trips the context and is then
  // observed like any real trip.
  DEPMINER_FAULT_ALLOC("alloc/partition_cache", ctx);
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.degraded) return;
  if (ctx != nullptr && ctx->limited() && !ctx->Check().ok()) {
    DegradeLocked();
    return;
  }
  if (x.Count() < 2 || partition == nullptr) return;
  auto it = entries_.find(x);
  if (it != entries_.end()) {
    // Deterministic values: an existing entry is the same partition.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  const size_t bytes = EntryBytes(*partition);
  if (bytes > config_.max_bytes) return;  // can never fit
  EvictForLocked(bytes);
  lru_.push_front(x);
  Entry entry;
  entry.partition = std::move(partition);
  entry.bytes = bytes;
  entry.lru_it = lru_.begin();
  entries_.emplace(x, std::move(entry));
  stats_.bytes += bytes;
  ++stats_.inserts;
  if (ctx != nullptr) ctx->ChargeBytes(bytes);
}

std::shared_ptr<const StrippedPartition> PartitionCache::Get(
    const AttributeSet& x) {
  const size_t m = x.Count();
  if (m == 0) return nullptr;
  if (m == 1) return Lookup(x);
  // Probe latency split by outcome: hits are a map lookup, misses pay
  // for the product chain below — the histogram gap is the cache's value.
  DEPMINER_TRACE_HIST_TIMER(probe_timer, "partition_probe_ns/miss");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<const StrippedPartition> found = FindLocked(x);
    if (found != nullptr) {
      ++stats_.hits;
      probe_timer.SetName("partition_probe_ns/hit");
      return found;
    }
    ++stats_.misses;
  }

  // Miss: extend the longest cached prefix of X's attribute chain. The
  // prefix decomposition is canonical (attributes in increasing order),
  // so repeated probes over overlapping sets share their chains.
  std::vector<AttributeId> members;
  members.reserve(m);
  x.ForEach([&members](AttributeId a) { members.push_back(a); });

  std::shared_ptr<const StrippedPartition> current;
  size_t have = 1;  // prefix length covered by `current`
  {
    std::lock_guard<std::mutex> lock(mutex_);
    AttributeSet prefix = x;
    for (size_t len = m - 1; len >= 2; --len) {
      prefix.Remove(members[len]);
      std::shared_ptr<const StrippedPartition> found = FindLocked(prefix);
      if (found != nullptr) {
        current = std::move(found);
        have = len;
        break;
      }
    }
  }
  if (current == nullptr) {
    current = {std::shared_ptr<const void>(), &base_->partition(members[0])};
  }

  PartitionProductWorkspace workspace(base_->num_tuples());
  AttributeSet prefix;
  for (size_t i = 0; i < have; ++i) prefix.Add(members[i]);
  for (size_t i = have; i < m; ++i) {
    StrippedPartition product =
        workspace.Product(*current, base_->partition(members[i]));
    current = std::make_shared<const StrippedPartition>(std::move(product));
    prefix.Add(members[i]);
    Insert(prefix, current);
  }
  return current;
}

PartitionCache::Stats PartitionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PartitionCache::EmitTraceCounters() const {
  const Stats snapshot = stats();
  DEPMINER_TRACE_COUNTER("partition_cache.hits", snapshot.hits);
  DEPMINER_TRACE_COUNTER("partition_cache.misses", snapshot.misses);
  DEPMINER_TRACE_COUNTER("partition_cache.inserts", snapshot.inserts);
  DEPMINER_TRACE_COUNTER("partition_cache.evictions", snapshot.evictions);
  DEPMINER_TRACE_COUNTER(
      "partition_cache.hit_rate_pct",
      static_cast<size_t>(snapshot.HitRate() * 100.0 + 0.5));
}

}  // namespace depminer
