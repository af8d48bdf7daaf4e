#pragma once

#include <string>
#include <vector>

#include "common/mining_options.h"
#include "common/run_context.h"
#include "fd/ranking.h"
#include "relation/relation.h"

namespace depminer {

/// A miner as `fdtool --algo=`, `MINE algo=` and the verify harness name it.
struct MinerSpec {
  const char* name;
  bool threaded;  ///< mines on `MineRequest::num_threads` pool lanes
};

/// depminer (Algorithm 2 agree sets), depminer2 (Algorithm 3), tane,
/// fastfds, fdep — in that order.
std::vector<MinerSpec> Miners();
/// The names joined by '|': "depminer|depminer2|tane|fastfds|fdep".
std::string MinerNames();

bool IsKnownMiner(const std::string& name);

struct MineRequest {
  size_t num_threads = 1;
  RunContext* run_context = nullptr;
  MiningOptions mining;
};

/// One mined cover plus how the run ended.
struct MineOutcome {
  FdSet fds;  ///< exactly as the miner built it
  /// The `mining.top_k` highest-redundancy FDs of `fds`; empty unranked.
  std::vector<RankedFd> ranked;
  bool complete = true;
  Status run_status;  ///< trip cause when !complete
};

/// Runs the miner named `algo` (else `InvalidArgument`), the request passed
/// through unchanged. A ranked request (`mining.top_k != 0`) ranks through
/// a `PartitionCache` that TANE fills with its level products as it mines,
/// then emits the cache's `partition_cache.*` trace counters.
Result<MineOutcome> MineByName(const Relation& relation,
                               const std::string& algo,
                               const MineRequest& request = {});

/// The cover as `fdtool mine` prints it and a MINE reply carries it: one
/// `fd.ToString` line per FD in FdSet order or, for a ranked outcome, per
/// ranked FD with a `  # redundancy=N` annotation.
std::string RenderCover(const FdSet& fds, const Schema& schema);
std::string RenderCover(const MineOutcome& outcome, const Schema& schema);

}  // namespace depminer
