#include "core/mine_by_name.h"

#include "common/trace.h"
#include "core/dep_miner.h"
#include "fastfds/fastfds.h"
#include "fdep/fdep.h"
#include "tane/tane.h"

namespace depminer {

namespace {

template <typename Options>
Options OptionsFor(const MineRequest& request) {
  Options options;
  options.run_context = request.run_context;
  options.mining = request.mining;
  return options;
}

template <typename Mined>
Result<MineOutcome> Outcome(Result<Mined> mined) {
  if (!mined.ok()) return mined.status();
  MineOutcome out;
  out.fds = std::move(mined.value().fds);
  out.complete = mined.value().complete;
  out.run_status = std::move(mined.value().run_status);
  return out;
}

template <AgreeSetAlgorithm kAlgorithm>
Result<MineOutcome> DepMiner(const Relation& relation,
                             const MineRequest& request,
                             PartitionCache* cache) {
  DepMinerOptions options = OptionsFor<DepMinerOptions>(request);
  options.agree_set_algorithm = kAlgorithm;
  options.build_armstrong = false;
  options.num_threads = request.num_threads;
  if (cache == nullptr) return Outcome(MineDependencies(relation, options));
  // A ranked mine has stripped r̂ for its cache already: mine that one,
  // refusing a tripped context up front as the relation overload does.
  DEPMINER_CHECK_RUN(request.run_context);
  return Outcome(MineDependencies(cache->base(), &relation, options));
}

struct Miner {
  MinerSpec spec;
  Result<MineOutcome> (*mine)(const Relation&, const MineRequest&,
                              PartitionCache*);
};

const Miner kMiners[] = {
    {{"depminer", true}, DepMiner<AgreeSetAlgorithm::kCouples>},
    {{"depminer2", true}, DepMiner<AgreeSetAlgorithm::kIdentifiers>},
    {{"tane", true},
     [](const Relation& r, const MineRequest& q, PartitionCache* cache) {
       TaneOptions options = OptionsFor<TaneOptions>(q);
       options.num_threads = q.num_threads;
       options.partition_cache = cache;
       return Outcome(TaneDiscover(r, options));
     }},
    {{"fastfds", false},
     [](const Relation& r, const MineRequest& q, PartitionCache*) {
       return Outcome(FastFdsDiscover(r, OptionsFor<FastFdsOptions>(q)));
     }},
    {{"fdep", false},
     [](const Relation& r, const MineRequest& q, PartitionCache*) {
       return Outcome(FdepDiscover(r, OptionsFor<FdepOptions>(q)));
     }},
};

const Miner* FindMiner(const std::string& name) {
  for (const Miner& miner : kMiners) {
    if (name == miner.spec.name) return &miner;
  }
  return nullptr;
}

}  // namespace

std::vector<MinerSpec> Miners() {
  std::vector<MinerSpec> specs;
  for (const Miner& miner : kMiners) specs.push_back(miner.spec);
  return specs;
}

std::string MinerNames() {
  std::string names;
  for (const Miner& miner : kMiners) {
    if (!names.empty()) names += '|';
    names += miner.spec.name;
  }
  return names;
}

bool IsKnownMiner(const std::string& name) { return FindMiner(name); }

Result<MineOutcome> MineByName(const Relation& relation,
                               const std::string& algo,
                               const MineRequest& request) {
  const Miner* miner = FindMiner(algo);
  if (miner == nullptr) {
    return Status::InvalidArgument("unknown algo '" + algo + "' (" +
                                   MinerNames() + ")");
  }
  if (request.mining.top_k == 0) return miner->mine(relation, request, nullptr);

  const StrippedPartitionDatabase db = [&] {
    PhaseTimer strip_timer("phase/strip", nullptr);
    return StrippedPartitionDatabase::FromRelation(relation,
                                                   request.num_threads);
  }();
  PartitionCache::Config config;
  config.run_context = request.run_context;
  PartitionCache cache(&db, config);
  Result<MineOutcome> mined = miner->mine(relation, request, &cache);
  if (mined.ok()) {
    PhaseTimer rank_timer("phase/rank", nullptr);
    mined.value().ranked =
        RankFds(mined.value().fds, db, request.mining.top_k, &cache).ranked;
    cache.EmitTraceCounters();
  }
  return mined;
}

std::string RenderCover(const FdSet& fds, const Schema& schema) {
  std::string body;
  for (const FunctionalDependency& fd : fds.fds()) {
    body += fd.ToString(schema);
    body += '\n';
  }
  return body;
}

std::string RenderCover(const MineOutcome& outcome, const Schema& schema) {
  if (outcome.ranked.empty()) return RenderCover(outcome.fds, schema);
  std::string body;
  for (const RankedFd& rf : outcome.ranked) {
    body += rf.fd.ToString(schema);
    body += "  # redundancy=" + std::to_string(rf.redundancy) + '\n';
  }
  return body;
}

}  // namespace depminer
