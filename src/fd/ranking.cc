#include "fd/ranking.h"

#include <algorithm>

#include "common/trace.h"
#include "partition/partition_product.h"

namespace depminer {

namespace {

size_t PartitionRedundancy(const StrippedPartition& p) {
  return p.CoveredTuples() - p.num_classes();
}

/// π̂_X folded directly from the per-attribute partitions (the uncached
/// path; the cache's Get does the same with prefix memoization).
size_t UncachedRedundancy(const AttributeSet& x,
                          const StrippedPartitionDatabase& db,
                          PartitionProductWorkspace* workspace) {
  std::vector<AttributeId> members;
  x.ForEach([&members](AttributeId a) { members.push_back(a); });
  StrippedPartition current = db.partition(members[0]);
  for (size_t i = 1; i < members.size(); ++i) {
    current = workspace->Product(current, db.partition(members[i]));
  }
  return PartitionRedundancy(current);
}

}  // namespace

RankingResult RankFds(const FdSet& fds, const StrippedPartitionDatabase& db,
                      size_t top_k, PartitionCache* cache) {
  RankingResult result;
  result.ranked.reserve(fds.size());
  PartitionProductWorkspace workspace(db.num_tuples());
  for (const FunctionalDependency& fd : fds.fds()) {
    RankedFd entry;
    entry.fd = fd;
    if (fd.lhs.Empty()) {
      entry.redundancy = db.num_tuples() > 0 ? db.num_tuples() - 1 : 0;
    } else if (cache != nullptr) {
      entry.redundancy = PartitionRedundancy(*cache->Get(fd.lhs));
    } else {
      entry.redundancy = UncachedRedundancy(fd.lhs, db, &workspace);
    }
    result.ranked.push_back(std::move(entry));
  }

  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const RankedFd& a, const RankedFd& b) {
              if (a.redundancy != b.redundancy) {
                return a.redundancy > b.redundancy;
              }
              const size_t ca = a.fd.lhs.Count(), cb = b.fd.lhs.Count();
              if (ca != cb) return ca < cb;
              return a.fd < b.fd;
            });
  if (top_k != 0 && result.ranked.size() > top_k) {
    result.ranked.resize(top_k);
  }
  DEPMINER_TRACE_COUNTER("ranking.fds", result.ranked.size());
  return result;
}

}  // namespace depminer
