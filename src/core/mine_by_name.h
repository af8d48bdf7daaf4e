#pragma once

#include <chrono>
#include <map>
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

struct MineRequest {
  size_t num_threads = 1;
  RunContext* run_context = nullptr;
  MiningOptions mining;
};

/// One key of a mine request in its two spellings: the `fdtool` flag
/// (`--timeout-ms=`) and the MINE parameter (`timeout_ms=`).
struct MineKey {
  const char* flag;
  const char* wire;
};

/// The seven mine-request keys. `fdtool client` forwards its flags to
/// MINE by walking this table.
inline constexpr MineKey kMineKeys[] = {
    {"algo", "algo"},         {"threads", "threads"},
    {"arity", "arity"},       {"error", "error"},
    {"topk", "topk"},         {"timeout-ms", "timeout_ms"},
    {"memory-budget-mb", "budget_mb"},
};

enum class KeySpelling { kFlag, kWire };

/// A mine request as `fdtool` flags or MINE parameters give it: the miner,
/// the request `MineByName` takes, and the limits of the `RunContext`
/// that will govern it.
struct ParsedMineRequest {
  std::string algo = "depminer";
  MineRequest request;                   ///< run_context is set by `Arm`
  std::chrono::milliseconds timeout{0};  ///< 0 = no deadline
  size_t budget_bytes = 0;               ///< 0 = no budget

  /// Arms the timeout and the budget on `ctx` and makes it the request's
  /// context.
  void Arm(RunContext* ctx);
};

/// The one parse of a mine request, for `fdtool` (every command), `fdtool
/// client` and MINE. Reads the `kMineKeys` of `values` in `spelling` and
/// ignores every other key. The rules:
///   - algo: one of `MinerNames()`; default depminer.
///   - threads: a non-negative integer, 0 meaning every core; default 1.
///   - arity, topk: positive integers; absent means no cap / unranked. An
///     explicit 0 would silently mean the same, so it is refused.
///   - error: a real number in [0,1), accepted with algo=tane only.
///   - timeout, budget: non-negative integers, 0 meaning none. A limit past
///     what the clock or `size_t` can represent is none too.
/// An integer above UINT64_MAX is malformed. A broken rule is an
/// `InvalidArgument` that names the key as `spelling` spells it.
Result<ParsedMineRequest> ParseMineRequest(
    const std::map<std::string, std::string>& values, KeySpelling spelling);

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
