#include "verify/miners.h"

#include "core/mine_by_name.h"

namespace depminer {

MinerOutcome MinerConfig::run(const Relation& relation, size_t threads,
                              RunContext* ctx,
                              const MiningOptions& mining) const {
  Result<MineOutcome> mined =
      MineByName(relation, name, {threads, ctx, mining});
  MinerOutcome out;
  if (!mined.ok()) {
    out.error = mined.status();
    return out;
  }
  out.fds = std::move(mined.value().fds);
  out.complete = mined.value().complete;
  out.run_status = std::move(mined.value().run_status);
  return out;
}

std::vector<MinerConfig> AllMiners() {
  std::vector<MinerConfig> miners;
  for (const MinerSpec& spec : Miners()) {
    miners.push_back({spec.name, spec.threaded});
  }
  return miners;
}

std::string MinerLabel(const MinerConfig& miner, size_t threads) {
  if (!miner.threaded) return miner.name;
  return miner.name + "/" + std::to_string(threads) + "t";
}

}  // namespace depminer
