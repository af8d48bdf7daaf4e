#pragma once

#include <string>
#include <vector>

#include "common/mining_options.h"
#include "common/run_context.h"
#include "common/status.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace depminer {

/// Normalized outcome of one miner invocation: either an error from the
/// call itself, or a (possibly governance-degraded) FD cover. The common
/// currency of the differential oracle and the fault sweep.
struct MinerOutcome {
  FdSet fds;
  bool complete = true;
  Status run_status;  ///< trip cause when !complete
  Status error;       ///< non-OK when the invocation itself failed
};

/// One of the miners under test (core/mine_by_name.h).
struct MinerConfig {
  std::string name;
  bool threaded = false;  ///< accepts pool lanes; serial miners run once

  /// Mines through `MineByName`, the pruning knobs passed through as given
  /// (`force_error_validation` takes TANE's g₃ path at ε = 0; the others
  /// ignore it).
  MinerOutcome run(const Relation& relation, size_t threads, RunContext* ctx,
                   const MiningOptions& mining = {}) const;
};

/// The five miners under test, in `Miners()` order: depminer (Algorithm 2
/// agree sets), depminer2 (Algorithm 3), tane, fastfds, fdep.
std::vector<MinerConfig> AllMiners();

/// "depminer/4t" for threaded miners, the bare name for serial ones.
std::string MinerLabel(const MinerConfig& miner, size_t threads);

}  // namespace depminer
