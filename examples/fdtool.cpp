// fdtool — a command-line front end over the whole library, the utility a
// dba would actually run against exported CSV data.
//
//   fdtool mine      data.csv [--algo=depminer|depminer2|tane|fastfds|fdep]
//                             [--out=deps.fds] [--checkpoint-dir=DIR]
//                             [--arity=K] [--error=EPS] [--topk=N]
//   fdtool armstrong data.csv [--out=sample.csv] [--synthetic]
//   fdtool keys      data.csv
//   fdtool normalize data.csv
//   fdtool verify    data.csv "A,B->C"          (attribute names)
//   fdtool repair    data.csv "A,B->C" [--out=clean.csv]
//   fdtool stats     data.csv
//   fdtool profile   data.csv [--format=json|md]
//   fdtool inds      a.csv b.csv ...             unary inclusion deps
//   fdtool fks       a.csv b.csv ...             foreign-key suggestions
//   fdtool implies   deps.fds "A,B->C"           derivation from a cover
//   fdtool diff      old.fds new.fds             dependency drift
//   fdtool catalog   dir <list|put NAME data.csv|get NAME|drop NAME>
//   fdtool convert   data.csv out.dmc           (either direction by
//                                                extension)
//   fdtool fuzz      [--iterations=N] [--seed=S] [--shrink=false]
//                    [--repro-dir=DIR]          differential verification
//   fdtool fuzz      --faults [--iterations=N] [--seed=S] [--site=NAME,..]
//                                               fault-injection sweep
//   fdtool datagen   out.csv [--corpus-scale=S [--spec=NAME]]
//                    [--tuples=N] [--attributes=N] [--identical-rate=C]
//                    [--seed=N]                  synthetic benchmark CSV
//
// Every command also accepts .dmc column files as input.
// Common flags: --no-header --delimiter=';' --nulls-distinct
//               --null-token=NA --timeout-ms=N --memory-budget-mb=N
//               --threads=N (mine: pool lanes; 0 = all cores)
//               --arity=K --error=EPS --topk=N (search-space pruning for
//               mine/profile/fuzz; see docs/PERFORMANCE.md)
//               --trace=out.json --metrics --metrics-out=m.prom|m.json
//               --log-level=L --log-json --progress [--progress-ms=N]
//               [--sample-ms=N] (observability; see docs/OBSERVABILITY.md)
//               --fault-site=NAME [--fault-hit=N] [--fault-repeat]
//               [--fault-stall-ms=N] (deterministic fault injection for
//               the whole command; see docs/ROBUSTNESS.md)
//
// Resource governance: --timeout-ms bounds the wall-clock of the mining
// commands and --memory-budget-mb their working set; Ctrl-C requests
// cooperative cancellation. In all three cases `mine` stops cleanly and
// reports the FDs found so far before exiting nonzero.
//
// Exit codes: 0 success; 1 error (or a fuzz/verify finding); 2 usage;
// 3 a tripped --timeout-ms/--memory-budget-mb limit (partial results
// flushed); 130 interrupted by Ctrl-C (partial results flushed, matching
// the shell's 128+SIGINT convention). README.md tabulates these.
//
// Crash-safe mining: `mine --checkpoint-dir=DIR` (depminer/depminer2)
// writes a checkpoint at every pipeline phase boundary, keyed by a
// content fingerprint of the input; re-running the same command after an
// interruption — Ctrl-C, a tripped limit, even kill -9 — resumes at the
// last completed phase and produces the identical cover. See
// docs/ROBUSTNESS.md.
//
// Observability: --trace=FILE records every pipeline phase, parallel
// lane, counter, histogram and sampled series of the run into a
// chrome://tracing / Perfetto loadable JSON file; --metrics prints a
// phase/counter summary table to stderr; --metrics-out=FILE exports the
// same registry as Prometheus text exposition (.prom) or versioned JSON
// (.json). Tracing also starts a background resource sampler (RSS,
// bytes-charged vs budget, deadline slack, pool queue depth;
// --sample-ms tunes the period). --log-level / --log-json configure the
// structured logger every operational message goes through; --progress
// emits a live per-phase heartbeat with an ETA every --progress-ms.
// All of it works with every single-input command (mine, profile,
// armstrong, ...); see docs/OBSERVABILITY.md.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "depminer.h"

using namespace depminer;

namespace {

/// The one context governing this invocation. File-scope so the SIGINT
/// handler — which may only touch lock-free atomics — can reach it;
/// RunContext::RequestCancel is async-signal-safe by design.
RunContext g_run_context;

void HandleSigint(int /*signum*/) { g_run_context.RequestCancel(); }

/// Exit code for a run interrupted by its RunContext: Ctrl-C follows the
/// shell convention for a SIGINT death (128 + 2 = 130) so wrappers and
/// Makefiles see the interruption even though we exit cleanly after
/// flushing partial results; a tripped limit is a distinct, scriptable
/// failure (3, leaving 1 for errors and 2 for usage).
int InterruptedExitCode(const Status& run_status) {
  return run_status.code() == StatusCode::kCancelled ? 130 : 3;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: fdtool "
      "<mine|armstrong|keys|normalize|verify|stats|convert> data.csv\n"
      "  mine      [--algo=depminer|depminer2|tane|fastfds|fdep]  list "
      "minimal FDs\n"
      "            [--arity=K]  cap LHS size at K (prunes the search "
      "before candidate generation)\n"
      "            [--error=EPS]  (tane only) report approximate FDs with "
      "g3 error <= EPS\n"
      "            [--topk=N]   keep the N highest-redundancy FDs of the "
      "cover\n"
      "  armstrong [--out=sample.csv] [--synthetic]          build Armstrong "
      "relation\n"
      "  keys                                                candidate keys\n"
      "  normalize                                           BCNF/3NF "
      "analysis\n"
      "  verify    \"A,B->C\"                                  check one FD\n"
      "  repair    \"A,B->C\" [--out=clean.csv]                minimal "
      "deletions making the FD hold\n"
      "  stats                                               relation "
      "statistics\n"
      "  profile   [--format=json|md]                        full analysis "
      "report\n"
      "  inds      a.csv b.csv ...                           unary "
      "inclusion dependencies\n"
      "  fks       a.csv b.csv ...                           foreign-key "
      "suggestions\n"
      "  implies   deps.fds \"A,B->C\"                         derivation "
      "from a saved cover\n"
      "  diff      old.fds new.fds                           dependency "
      "drift between covers\n"
      "  catalog   dir list|put NAME f.csv|get NAME|drop NAME  manage a "
      ".dmc workspace\n"
      "  serve     --catalog-dir=DIR --socket=PATH [--queue-max=N] "
      "[--threads=N]\n"
      "            long-running discovery daemon over a Unix socket: "
      "concurrent mine/profile\n"
      "            requests, fingerprint-keyed result cache, graceful "
      "SIGTERM/SIGINT drain;\n"
      "            --metrics-out is rewritten per request (scrape-able "
      "live; docs/SERVING.md)\n"
      "  client    --socket=PATH "
      "ping|list|stats|info|put|drop|mine|profile [NAME] [f.csv]\n"
      "            one request against a running daemon (mine accepts "
      "--algo --threads --arity\n"
      "            --error --topk --timeout-ms --memory-budget-mb "
      "--no-cache)\n"
      "  fuzz      [--iterations=N] [--seed=S] [--shrink=false]\n"
      "            [--repro-dir=DIR]   differential verification harness: "
      "run all five miners\n"
      "            on adversarial relations, diff the covers, check the "
      "Armstrong round-trip;\n"
      "            failing seeds are shrunk and written to DIR (exit 1, "
      "repro path on the last line)\n"
      "  fuzz --faults [--iterations=N] [--seed=S] [--site=NAME,...]\n"
      "            fault-injection sweep: inject every registered fault "
      "into every miner and\n"
      "            the CSV reader, assert a clean error or a sound "
      "partial result each time\n"
      "  convert   out.dmc|out.csv                           re-encode "
      "between formats\n"
      "  datagen   out.csv [--corpus-scale=S [--spec=NAME]] [--tuples=N]\n"
      "            [--attributes=N] [--identical-rate=C] [--seed=N]\n"
      "            write a synthetic benchmark relation (the paper's "
      "generator; --corpus-scale\n"
      "            picks a point of the paper-scale grid, --spec matches "
      "its name)\n"
      "common: --no-header --delimiter=';' --nulls-distinct "
      "--null-token=NA\n"
      "        --timeout-ms=N --memory-budget-mb=N   bound the run; "
      "Ctrl-C stops it cleanly (partial report, exit 130; tripped limits "
      "exit 3)\n"
      "        --checkpoint-dir=DIR   (mine, depminer/depminer2 on CSV) "
      "checkpoint at phase\n"
      "            boundaries; re-running resumes an interrupted mine "
      "bit-identically\n"
      "        --fault-site=NAME [--fault-hit=N] [--fault-repeat] "
      "[--fault-stall-ms=N]\n"
      "            deterministic fault injection for the whole command "
      "(docs/ROBUSTNESS.md)\n"
      "        --threads=N   pool lanes for mine (default 1; 0 = all "
      "cores; results are identical for any value)\n"
      "        --arity=K --error=EPS --topk=N   search-space pruning "
      "(mine/profile/fuzz; docs/PERFORMANCE.md)\n"
      "        --trace=out.json   write a chrome://tracing / Perfetto "
      "trace of the run\n"
      "        --metrics   print a phase/counter summary table to "
      "stderr\n"
      "        --metrics-out=FILE   export the run's metrics registry; "
      "the extension picks the\n"
      "            format (.prom Prometheus text exposition, .json "
      "versioned JSON document)\n"
      "        --log-level=debug|info|warn|error|off   structured-log "
      "threshold (default info)\n"
      "        --log-json   emit logs as JSON-lines instead of human "
      "one-liners\n"
      "        --progress [--progress-ms=N]   live per-phase heartbeat "
      "with an ETA (default 1000 ms)\n"
      "        --sample-ms=N   resource sampler period under "
      "--trace/--metrics-out (default 50 ms)\n");
  return 2;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The CSV flags; main() has already rejected a bad --delimiter.
CsvOptions CsvFlags(const ArgParser& args) {
  CsvOptions options;
  options.has_header = !args.GetBool("no-header", false);
  if (args.Has("delimiter")) {
    (void)SetCsvDelimiter(args.GetString("delimiter", ""), &options);
  }
  options.nulls_distinct = args.GetBool("nulls-distinct", false);
  options.null_token = args.GetString("null-token", "");
  return options;
}

Result<Relation> Load(const ArgParser& args) {
  if (args.positional().size() < 2) {
    return Status::InvalidArgument("missing input path");
  }
  const std::string& path = args.positional()[1];
  if (HasSuffix(path, ".dmc")) return ReadColumnFile(path);
  return ReadCsvRelation(path, CsvFlags(args));
}

/// The --threads flag: 1 (serial) by default, 0 means "all cores".
size_t ThreadsFlag(const ArgParser& args) {
  const int64_t t = args.GetInt("threads", 1);
  return t <= 0 ? DefaultThreadCount() : static_cast<size_t>(t);
}

/// The pruning knobs (--arity/--error/--topk), already range-validated by
/// main() before any command dispatch.
MiningOptions MiningFlags(const ArgParser& args) {
  MiningOptions mining;
  mining.max_lhs_arity = static_cast<size_t>(args.GetInt("arity", 0));
  if (args.Has("error")) {
    mining.max_g3_error = std::strtod(args.GetString("error", "0").c_str(),
                                      nullptr);
  }
  mining.top_k = static_cast<size_t>(args.GetInt("topk", 0));
  return mining;
}

/// Parses "A,B->C" using attribute names (or single letters for default
/// schemas).
Result<FunctionalDependency> ParseFd(const Schema& schema,
                                     const std::string& text) {
  const size_t arrow = text.find("->");
  if (arrow == std::string::npos) {
    return Status::InvalidArgument("expected 'lhs->rhs' in '" + text + "'");
  }
  FunctionalDependency fd;
  const std::string lhs_text = text.substr(0, arrow);
  const std::string rhs_text =
      std::string(StripAsciiWhitespace(text.substr(arrow + 2)));
  for (const std::string& raw : Split(lhs_text, ',')) {
    const std::string name = std::string(StripAsciiWhitespace(raw));
    if (name.empty()) continue;
    Result<AttributeId> id = schema.Find(name);
    if (!id.ok()) return id.status();
    fd.lhs.Add(id.value());
  }
  Result<AttributeId> rhs = schema.Find(rhs_text);
  if (!rhs.ok()) return rhs.status();
  fd.rhs = rhs.value();
  return fd;
}

int CmdMine(const Relation& relation, const ArgParser& args) {
  const MiningOptions mining = MiningFlags(args);
  Result<MineOutcome> mined =
      MineByName(relation, args.GetString("algo", "depminer"),
                 {ThreadsFlag(args), &g_run_context, mining});
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  const MineOutcome& outcome = mined.value();
  {
    PhaseTimer render_timer("phase/render", nullptr);
    const std::string out = args.GetString("out", "");
    if (out.empty()) {
      std::fputs(RenderCover(outcome, relation.schema()).c_str(), stdout);
    } else {
      std::vector<FunctionalDependency> kept;
      for (const RankedFd& rf : outcome.ranked) kept.push_back(rf.fd);
      const Status st = SaveFdSet(
          mining.top_k == 0 ? outcome.fds
                            : FdSet(relation.num_attributes(), kept),
          relation.schema(), out);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  if (!outcome.complete) {
    Log(LogLevel::kWarn, "fdtool",
        "run interrupted (" + outcome.run_status.ToString() +
            "); partial results:\n" + std::to_string(outcome.fds.size()) +
            " minimal FDs (possibly incomplete)",
        {LogStr("status", outcome.run_status.ToString()),
         LogNum("fds", static_cast<uint64_t>(outcome.fds.size()))});
    return InterruptedExitCode(outcome.run_status);
  }
  Log(LogLevel::kInfo, "fdtool",
      std::to_string(outcome.fds.size()) + " minimal FDs",
      {LogNum("fds", static_cast<uint64_t>(outcome.fds.size()))});
  return 0;
}

/// `mine --checkpoint-dir=DIR`: crash-safe mining over the CSV path
/// itself (the checkpoint job is keyed by a content fingerprint of the
/// file, so this bypasses the generic relation loader). Restricted to
/// the Dep-Miner pipelines — they are the ones with phase boundaries to
/// checkpoint at.
int CmdMineCheckpointed(const ArgParser& args) {
  if (args.positional().size() < 2) return Usage();
  const std::string& path = args.positional()[1];
  if (HasSuffix(path, ".dmc")) {
    std::fprintf(stderr,
                 "error: --checkpoint-dir mines CSV input (the checkpoint "
                 "job is keyed by the CSV's content fingerprint)\n");
    return 2;
  }
  const std::string algo = args.GetString("algo", "depminer");
  if (algo != "depminer" && algo != "depminer2") {
    std::fprintf(stderr,
                 "error: --checkpoint-dir supports --algo=depminer or "
                 "depminer2, got \"%s\"\n",
                 algo.c_str());
    return 2;
  }
  CheckpointedMineOptions options;
  options.checkpoint_dir = args.GetString("checkpoint-dir", "");
  options.algorithm = algo == "depminer2" ? AgreeSetAlgorithm::kIdentifiers
                                          : AgreeSetAlgorithm::kCouples;
  options.num_threads = ThreadsFlag(args);
  options.run_context = &g_run_context;
  options.csv = CsvFlags(args);

  Result<CheckpointedMineResult> mined = MineCsvWithCheckpoints(path, options);
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  const CheckpointedMineResult& outcome = mined.value();
  if (outcome.resumed_from != MinePhase::kNone) {
    Log(LogLevel::kInfo, "checkpoint",
        "resumed from phase '" + std::string(ToString(outcome.resumed_from)) +
            "' (" + outcome.checkpoint_path + ")",
        {LogStr("phase", ToString(outcome.resumed_from)),
         LogStr("path", outcome.checkpoint_path)});
  }
  {
    PhaseTimer render_timer("phase/render", nullptr);
    const std::string out = args.GetString("out", "");
    if (!out.empty()) {
      Status st = SaveFdSet(outcome.fds, outcome.schema, out);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
    } else {
      std::fputs(RenderCover(outcome.fds, outcome.schema).c_str(), stdout);
    }
  }
  if (!outcome.complete) {
    Log(LogLevel::kWarn, "checkpoint",
        "run interrupted (" + outcome.run_status.ToString() +
            "); partial results:\n" + std::to_string(outcome.fds.size()) +
            " minimal FDs (possibly incomplete)\ncheckpoint: " +
            outcome.checkpoint_path +
            "\nre-run the same command to resume from it",
        {LogStr("status", outcome.run_status.ToString()),
         LogNum("fds", static_cast<uint64_t>(outcome.fds.size())),
         LogStr("checkpoint", outcome.checkpoint_path)});
    return InterruptedExitCode(outcome.run_status);
  }
  Log(LogLevel::kInfo, "checkpoint",
      std::to_string(outcome.fds.size()) + " minimal FDs (fingerprint " +
          outcome.fingerprint.ToHex() + ")",
      {LogNum("fds", static_cast<uint64_t>(outcome.fds.size())),
       LogStr("fingerprint", outcome.fingerprint.ToHex())});
  return 0;
}

int CmdConvert(const Relation& relation, const ArgParser& args) {
  if (args.positional().size() < 3) return Usage();
  const std::string& out = args.positional()[2];
  Status st = HasSuffix(out, ".dmc") ? WriteColumnFile(relation, out)
                                     : WriteCsvRelation(relation, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu tuples)\n", out.c_str(),
               relation.num_tuples());
  return 0;
}

int CmdProfile(const Relation& relation, const ArgParser& args) {
  const std::string source = args.positional()[1];
  ProfileOptions options;
  // Only the arity cap applies here: the profile's mining pass is the
  // Dep-Miner pipeline (no approximate path) and its report wants the
  // whole capped cover, not a top-k slice. A capped profile notes that
  // the Armstrong sample is unavailable instead of building one from a
  // partial cover.
  options.mining.mining.max_lhs_arity =
      static_cast<size_t>(args.GetInt("arity", 0));
  options.mining.run_context = &g_run_context;
  Result<RelationProfile> profile = ProfileRelation(relation, source, options);
  if (!profile.ok()) {
    std::fprintf(stderr, "error: %s\n", profile.status().ToString().c_str());
    return 1;
  }
  const std::string format = args.GetString("format", "md");
  if (format == "json") {
    std::printf("%s\n", ProfileToJson(profile.value()).c_str());
  } else {
    std::printf("%s", ProfileToMarkdown(profile.value()).c_str());
  }
  return 0;
}

int CmdArmstrong(const Relation& relation, const ArgParser& args) {
  DepMinerOptions options;
  options.run_context = &g_run_context;
  Result<DepMinerResult> mined = MineDependencies(relation, options);
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  if (!mined.value().complete) {
    std::fprintf(stderr, "run interrupted (%s); no Armstrong relation\n",
                 mined.value().run_status.ToString().c_str());
    return InterruptedExitCode(mined.value().run_status);
  }
  Relation sample;
  if (args.GetBool("synthetic", false)) {
    Result<Relation> synthetic =
        BuildSyntheticArmstrong(relation.schema(), mined.value().all_max_sets);
    if (!synthetic.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   synthetic.status().ToString().c_str());
      return 1;
    }
    sample = std::move(synthetic).value();
  } else if (mined.value().armstrong.has_value()) {
    sample = *mined.value().armstrong;
  } else {
    std::fprintf(stderr, "real-world Armstrong relation unavailable: %s\n",
                 mined.value().armstrong_status.ToString().c_str());
    std::fprintf(stderr, "hint: --synthetic always succeeds\n");
    return 1;
  }
  const std::string out = args.GetString("out", "");
  if (out.empty()) {
    std::printf("%s", CsvToString(sample).c_str());
  } else {
    Status st = WriteCsvRelation(sample, out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "%zu tuples (input had %zu)\n", sample.num_tuples(),
               relation.num_tuples());
  return 0;
}

int CmdKeys(const Relation& relation) {
  Result<MineOutcome> mined =
      MineByName(relation, "depminer", {1, &g_run_context, {}});
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  if (!mined.value().complete) {
    // Keys from a partial cover would merely be key *candidates*; say so
    // rather than print something wrong.
    std::fprintf(stderr, "run interrupted (%s); keys unavailable\n",
                 mined.value().run_status.ToString().c_str());
    return InterruptedExitCode(mined.value().run_status);
  }
  for (const AttributeSet& key : CandidateKeys(mined.value().fds)) {
    std::printf("%s\n", key.ToString(relation.schema().names()).c_str());
  }
  return 0;
}

int CmdNormalize(const Relation& relation) {
  Result<MineOutcome> mined =
      MineByName(relation, "depminer", {1, &g_run_context, {}});
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  if (!mined.value().complete) {
    std::fprintf(stderr, "run interrupted (%s); analysis unavailable\n",
                 mined.value().run_status.ToString().c_str());
    return InterruptedExitCode(mined.value().run_status);
  }
  NormalizationAnalysis analysis(relation.schema(), mined.value().fds);
  std::printf("%s", analysis.Report().c_str());
  if (!analysis.InBcnf()) {
    std::printf("3NF synthesis:\n");
    for (const DecompositionFragment& frag : analysis.ThirdNfSynthesis()) {
      std::printf("  R(%s)\n",
                  frag.attributes.ToString(relation.schema().names()).c_str());
    }
  }
  return 0;
}

int CmdVerify(const Relation& relation, const ArgParser& args) {
  if (args.positional().size() < 3) return Usage();
  Result<FunctionalDependency> fd =
      ParseFd(relation.schema(), args.positional()[2]);
  if (!fd.ok()) {
    std::fprintf(stderr, "error: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  const bool holds = Holds(relation, fd.value());
  std::printf("%s: %s", fd.value().ToString(relation.schema()).c_str(),
              holds ? "holds" : "violated");
  if (holds) {
    std::printf(" (%s)", IsMinimalFd(relation, fd.value())
                             ? "minimal"
                             : "not minimal");
  } else {
    std::printf(" (%zu violating pairs, g3 error %.4f)",
                CountViolatingPairs(relation, fd.value().lhs, fd.value().rhs),
                G3Error(relation, fd.value().lhs, fd.value().rhs));
  }
  std::printf("\n");
  return holds ? 0 : 1;
}

int CmdRepair(const Relation& relation, const ArgParser& args) {
  if (args.positional().size() < 3) return Usage();
  Result<FunctionalDependency> fd =
      ParseFd(relation.schema(), args.positional()[2]);
  if (!fd.ok()) {
    std::fprintf(stderr, "error: %s\n", fd.status().ToString().c_str());
    return 1;
  }
  const FdRepair repair = ComputeRepair(relation, fd.value());
  std::fprintf(stderr, "%s: g3 = %.4f, %zu tuple(s) to remove\n",
               fd.value().ToString(relation.schema()).c_str(), repair.g3,
               repair.tuples_to_remove.size());
  for (TupleId t : repair.tuples_to_remove) {
    std::fprintf(stderr, "  row %u: %s\n", t + 1,
                 relation.TupleToString(t).c_str());
  }
  const std::string out = args.GetString("out", "");
  if (!out.empty()) {
    Result<Relation> repaired =
        ApplyRepair(relation, repair.tuples_to_remove);
    if (!repaired.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   repaired.status().ToString().c_str());
      return 1;
    }
    Status st = WriteCsvRelation(repaired.value(), out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu tuples)\n", out.c_str(),
                 repaired.value().num_tuples());
  }
  return repair.tuples_to_remove.empty() ? 0 : 1;
}

int CmdStats(const Relation& relation) {
  std::printf("attributes: %zu\n", relation.num_attributes());
  std::printf("tuples:     %zu\n", relation.num_tuples());
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(relation);
  for (AttributeId a = 0; a < relation.num_attributes(); ++a) {
    std::printf("  %-20s distinct=%-8zu stripped_classes=%zu\n",
                relation.schema().name(a).c_str(), relation.DistinctCount(a),
                db.partition(a).num_classes());
  }
  std::printf("stripped memberships: %zu\n", db.TotalMemberships());
  return 0;
}

}  // namespace

Status LoadMany(const ArgParser& args, std::vector<Relation>* owned,
                std::vector<std::string>* labels) {
  for (size_t i = 1; i < args.positional().size(); ++i) {
    Result<Relation> r =
        HasSuffix(args.positional()[i], ".dmc")
            ? ReadColumnFile(args.positional()[i])
            : ReadCsvRelation(args.positional()[i], CsvFlags(args));
    if (!r.ok()) return r.status();
    owned->push_back(std::move(r).value());
    labels->push_back(args.positional()[i]);
  }
  return Status::OK();
}

int CmdInds(const ArgParser& args) {
  if (args.positional().size() < 2) return Usage();
  std::vector<Relation> owned;
  std::vector<std::string> labels;
  Status st = LoadMany(args, &owned, &labels);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<const Relation*> relations;
  relations.reserve(owned.size());
  for (const Relation& r : owned) relations.push_back(&r);
  const std::vector<UnaryInd> inds = DiscoverUnaryInds(relations);
  for (const UnaryInd& ind : inds) {
    std::printf("%s\n", IndToString(ind, relations, labels).c_str());
  }
  std::fprintf(stderr, "%zu unary inclusion dependencies\n", inds.size());
  return 0;
}

int CmdFks(const ArgParser& args) {
  if (args.positional().size() < 2) return Usage();
  std::vector<Relation> owned;
  std::vector<std::string> labels;
  Status st = LoadMany(args, &owned, &labels);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<const Relation*> relations;
  relations.reserve(owned.size());
  for (const Relation& r : owned) relations.push_back(&r);
  ForeignKeyOptions options;
  options.skip_self_references = args.GetBool("no-self", false);
  const std::vector<ForeignKeyCandidate> fks =
      SuggestForeignKeys(relations, options);
  for (const ForeignKeyCandidate& fk : fks) {
    std::printf("%s%s\n", IndToString(fk.ind, relations, labels).c_str(),
                fk.rhs_is_minimal_key ? "  (references a candidate key)"
                                      : "  (references a unique column set)");
  }
  std::fprintf(stderr, "%zu foreign-key candidates\n", fks.size());
  return 0;
}

int CmdImplies(const ArgParser& args) {
  if (args.positional().size() < 3) return Usage();
  Schema schema;
  Result<FdSet> fds = LoadFdSet(args.positional()[1], &schema);
  if (!fds.ok()) {
    std::fprintf(stderr, "error: %s\n", fds.status().ToString().c_str());
    return 1;
  }
  Result<FunctionalDependency> fd = ParseFd(schema, args.positional()[2]);
  if (!fd.ok()) {
    // `implies` has always printed a malformed query without its code.
    const Status& st = fd.status();
    std::fprintf(stderr, "error: %s\n",
                 (st.code() == StatusCode::kInvalidArgument ? st.message()
                                                            : st.ToString())
                     .c_str());
    return 1;
  }
  const Derivation d =
      ExplainImplication(fds.value(), fd.value().lhs, fd.value().rhs);
  std::printf("%s", d.ToString(schema).c_str());
  return d.implied ? 0 : 1;
}

int CmdDiff(const ArgParser& args) {
  if (args.positional().size() < 3) return Usage();
  Schema old_schema, new_schema;
  Result<FdSet> old_fds = LoadFdSet(args.positional()[1], &old_schema);
  Result<FdSet> new_fds = LoadFdSet(args.positional()[2], &new_schema);
  if (!old_fds.ok() || !new_fds.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!old_fds.ok() ? old_fds.status() : new_fds.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  if (!(old_schema == new_schema)) {
    std::fprintf(stderr, "error: the two covers name different schemas\n");
    return 1;
  }
  const FdSetDiff diff = DiffFdSets(old_fds.value(), new_fds.value());
  std::printf("%s", diff.ToString(old_schema).c_str());
  return diff.Equivalent() ? 0 : 1;
}

/// `fdtool fuzz`: the differential verification harness
/// (docs/VERIFICATION.md). Needs no input file — relations come from the
/// seed-reproducible adversarial generator. On divergence the failing
/// relation is shrunk, written under --repro-dir, and the repro CSV path
/// is the last line on stdout (scriptable: exit 1 + tail -1).
/// `fdtool fuzz --faults`: the fault-injection sweep (docs/ROBUSTNESS.md).
/// Walks seeds × registered fault sites × miners and asserts every
/// injected fault yields a well-formed error or a sound partial result.
/// The summary line (printed to stdout) carries the fired-fault count the
/// smoke scripts assert on.
int CmdFaultSweep(const ArgParser& args) {
  FaultSweepOptions options;
  options.iterations = static_cast<size_t>(args.GetInt("iterations", 50));
  options.start_seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  // Two lanes by default so the pool sites (lane stalls) are reachable;
  // --threads overrides as usual.
  options.num_threads = args.Has("threads") ? ThreadsFlag(args) : 2;
  const std::string sites = args.GetString("site", "");
  if (!sites.empty()) {
    for (const std::string& raw : Split(sites, ',')) {
      const std::string name = std::string(StripAsciiWhitespace(raw));
      if (!name.empty()) options.sites.push_back(name);
    }
  }
  options.log_every = options.iterations >= 20 ? 10 : 0;
  Result<FaultSweepReport> run = RunFaultSweep(options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("fault sweep: %s\n", run.value().ToString().c_str());
  return run.value().ok() ? 0 : 1;
}

int CmdFuzz(const ArgParser& args) {
  if (args.GetBool("faults", false)) return CmdFaultSweep(args);
  FuzzOptions options;
  options.iterations =
      static_cast<size_t>(args.GetInt("iterations", 100));
  options.start_seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.shrink = args.GetBool("shrink", true);
  options.repro_dir = args.GetString("repro-dir", "fuzz-repros");
  if (args.Has("threads")) {
    options.oracle.thread_counts = {1, ThreadsFlag(args)};
  }
  // --arity moves the cap the pruning cross-checks (capped-vs-filtered,
  // forced-ε=0) run every miner under; the default of 2 bites on most
  // generated relations.
  if (args.Has("arity")) {
    options.oracle.arity_cap = static_cast<size_t>(args.GetInt("arity", 2));
  }
  Result<FuzzResult> run = RunFuzzHarness(options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const FuzzResult& result = run.value();
  Log(LogLevel::kInfo, "fdtool",
      "fuzz: " + std::to_string(result.cases_run) + " cases (seeds " +
          std::to_string(options.start_seed) + ".." +
          std::to_string(options.start_seed + options.iterations - 1) +
          "), " + std::to_string(result.miner_runs) + " miner runs, " +
          std::to_string(result.failures.size()) + " failing seed(s)",
      {LogNum("cases", static_cast<uint64_t>(result.cases_run)),
       LogNum("miner_runs", static_cast<uint64_t>(result.miner_runs)),
       LogNum("failures", static_cast<uint64_t>(result.failures.size()))});
  if (result.ok()) return 0;
  for (const FuzzFailure& failure : result.failures) {
    std::printf("%s\n", failure.repro_path.empty()
                            ? ("seed " + std::to_string(failure.seed))
                                  .c_str()
                            : failure.repro_path.c_str());
  }
  return 1;
}

/// `fdtool datagen out.csv`: materializes a synthetic benchmark relation
/// (the paper's §5.2 generator) to CSV. With --corpus-scale it writes a
/// point of the paper-scale grid (`PaperScaleCorpus`), picked by --spec
/// name substring; without, a custom relation from --tuples /
/// --attributes / --identical-rate. The observability smoke in
/// scripts/check.sh mines a small --corpus-scale point with telemetry on.
int CmdDatagen(const ArgParser& args) {
  if (args.positional().size() < 2) return Usage();
  const std::string& out = args.positional()[1];
  SyntheticConfig config;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  std::string spec_name = "custom";
  if (args.Has("corpus-scale")) {
    const std::string raw = args.GetString("corpus-scale", "");
    char* end = nullptr;
    const double scale = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end == raw.c_str() || *end != '\0' ||
        !(scale > 0.0)) {
      std::fprintf(stderr,
                   "error: --corpus-scale must be a positive real, got "
                   "\"%s\"\n",
                   raw.c_str());
      return 2;
    }
    const std::vector<CorpusSpec> corpus = PaperScaleCorpus(scale,
                                                            config.seed);
    const std::string want = args.GetString("spec", "");
    const CorpusSpec* chosen = nullptr;
    for (const CorpusSpec& spec : corpus) {
      if (want.empty() || spec.name.find(want) != std::string::npos) {
        chosen = &spec;
        break;
      }
    }
    if (chosen == nullptr) {
      std::fprintf(stderr,
                   "error: no corpus spec matches \"%s\"; available:\n",
                   want.c_str());
      for (const CorpusSpec& spec : corpus) {
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
      }
      return 2;
    }
    config = chosen->config;
    spec_name = chosen->name;
  } else {
    if (args.Has("tuples")) {
      config.num_tuples = static_cast<size_t>(args.GetInt("tuples", 0));
    }
    if (args.Has("attributes")) {
      config.num_attributes =
          static_cast<size_t>(args.GetInt("attributes", 0));
    }
    if (args.Has("identical-rate")) {
      const std::string raw = args.GetString("identical-rate", "");
      char* end = nullptr;
      const double rate = std::strtod(raw.c_str(), &end);
      if (raw.empty() || end == raw.c_str() || *end != '\0' ||
          !(rate >= 0.0) || rate > 1.0) {
        std::fprintf(stderr,
                     "error: --identical-rate must be a real in [0,1], "
                     "got \"%s\"\n",
                     raw.c_str());
        return 2;
      }
      config.identical_rate = rate;
    }
  }
  config.num_threads = ThreadsFlag(args);
  config.run_context = &g_run_context;
  Result<Relation> generated = GenerateSynthetic(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  Status st = WriteCsvRelation(generated.value(), out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  Log(LogLevel::kInfo, "fdtool",
      "wrote " + out + " (" +
          std::to_string(generated.value().num_tuples()) + " tuples, " +
          std::to_string(generated.value().num_attributes()) +
          " attributes, spec " + spec_name + ")",
      {LogStr("path", out),
       LogNum("tuples",
              static_cast<uint64_t>(generated.value().num_tuples())),
       LogNum("attributes",
              static_cast<uint64_t>(generated.value().num_attributes())),
       LogStr("spec", spec_name)});
  return 0;
}

int CmdCatalog(const ArgParser& args) {
  if (args.positional().size() < 3) return Usage();
  Result<Catalog> catalog = Catalog::Open(args.positional()[1]);
  if (!catalog.ok()) {
    std::fprintf(stderr, "error: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  const std::string& action = args.positional()[2];
  if (action == "list") {
    for (const std::string& name : catalog.value().List()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (action == "put" && args.positional().size() >= 5) {
    Result<Relation> r =
        ReadCsvRelation(args.positional()[4], CsvFlags(args));
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    Status st = catalog.value().Put(args.positional()[3], r.value());
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (action == "get" && args.positional().size() >= 4) {
    Result<Relation> r = catalog.value().Get(args.positional()[3]);
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", CsvToString(r.value()).c_str());
    return 0;
  }
  if (action == "drop" && args.positional().size() >= 4) {
    Status st = catalog.value().Drop(args.positional()[3]);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  return Usage();
}

/// Shutdown latch for `fdtool serve`: SIGTERM/SIGINT handlers may only
/// touch lock-free atomics, so they set this flag and the server's
/// accept loop notices it within one poll tick and drains.
std::atomic<bool> g_serve_shutdown{false};

void HandleServeSignal(int /*signum*/) {
  g_serve_shutdown.store(true, std::memory_order_release);
}

/// `fdtool serve --catalog-dir=DIR --socket=PATH`: the long-running
/// FD-discovery daemon (docs/SERVING.md). Exit 0 after a graceful
/// drain, 1 on a serving error, 2 on usage errors.
int CmdServe(const ArgParser& args) {
  const std::string catalog_dir = args.GetString("catalog-dir", "");
  const std::string socket_path = args.GetString("socket", "");
  if (catalog_dir.empty() || socket_path.empty()) {
    std::fprintf(stderr,
                 "error: serve requires --catalog-dir=DIR and "
                 "--socket=PATH\n");
    return 2;
  }
  ServerOptions options;
  options.catalog_dir = catalog_dir;
  options.socket_path = socket_path;
  const int64_t queue_max = args.GetInt("queue-max", 32);
  if (queue_max <= 0) {
    std::fprintf(stderr, "error: --queue-max must be a positive integer\n");
    return 2;
  }
  options.max_connections = static_cast<size_t>(queue_max);
  options.num_threads = ThreadsFlag(args);
  options.metrics_path = args.GetString("metrics-out", "");
  options.shutdown_flag = &g_serve_shutdown;

  // Replace the one-shot SIGINT handler installed for mining commands:
  // for a daemon both SIGINT and SIGTERM mean "drain and exit 0".
  (void)std::signal(SIGINT, HandleServeSignal);
  (void)std::signal(SIGTERM, HandleServeSignal);

  Server server(options);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  st = server.Serve();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

/// `fdtool client --socket=PATH <verb> [...]`: one request against a
/// running daemon. Bodies (covers, profiles, listings) go to stdout;
/// `OK` params are logged. Exit 0 on OK, 3 when a MINE came back
/// incomplete (tripped limit — same convention as one-shot mining), 1
/// on any ERR or transport failure, 2 on usage errors.
int CmdClient(const ArgParser& args) {
  const std::string socket_path = args.GetString("socket", "");
  if (socket_path.empty() || args.positional().size() < 2) {
    std::fprintf(stderr,
                 "error: client requires --socket=PATH and a command "
                 "(ping|list|stats|info|put|drop|mine|profile)\n");
    return 2;
  }
  const std::string verb = args.positional()[1];
  std::string command_line;
  std::string body;
  if (verb == "ping" || verb == "list" || verb == "stats") {
    command_line = verb;
  } else if (verb == "info" || verb == "drop") {
    if (args.positional().size() < 3) {
      std::fprintf(stderr, "error: client %s NAME\n", verb.c_str());
      return 2;
    }
    command_line = verb + " " + args.positional()[2];
  } else if (verb == "put") {
    if (args.positional().size() < 4) {
      std::fprintf(stderr, "error: client put NAME data.csv\n");
      return 2;
    }
    command_line = "put " + args.positional()[2];
    if (args.GetBool("no-header", false)) command_line += " header=0";
    const std::string delim = args.GetString("delimiter", "");
    if (!delim.empty()) command_line += " delimiter=" + delim;
    std::ifstream in(args.positional()[3], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   args.positional()[3].c_str());
      return 1;
    }
    std::ostringstream csv;
    csv << in.rdbuf();
    body = csv.str();
  } else if (verb == "mine" || verb == "profile") {
    if (args.positional().size() < 3) {
      std::fprintf(stderr, "error: client %s NAME\n", verb.c_str());
      return 2;
    }
    command_line = verb + " " + args.positional()[2];
    if (verb == "mine") {
      if (args.Has("algo")) {
        command_line += " algo=" + args.GetString("algo", "");
      }
      static constexpr std::pair<const char*, const char*> kMineParams[] = {
          {"threads", "threads"},       {"arity", "arity"},
          {"topk", "topk"},             {"error", "error"},
          {"timeout-ms", "timeout_ms"}, {"memory-budget-mb", "budget_mb"}};
      for (const auto& [flag, param] : kMineParams) {
        if (args.Has(flag)) {
          command_line +=
              " " + std::string(param) + "=" + args.GetString(flag, "");
        }
      }
      if (args.GetBool("no-cache", false)) command_line += " nocache=1";
    } else if (args.Has("format")) {
      command_line += " format=" + args.GetString("format", "");
    }
  } else {
    std::fprintf(stderr, "error: unknown client command '%s'\n",
                 verb.c_str());
    return 2;
  }

  Result<ServerClient> client = ServerClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  Result<Response> response = client.value().Call(command_line, body);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  const Response& r = response.value();
  if (!r.ok) {
    std::fprintf(stderr, "error: %s %s\n", r.code.c_str(),
                 r.message.c_str());
    return 1;
  }
  std::printf("%s", r.body.c_str());
  std::string params;
  for (const auto& [key, value] : r.params) {
    params += " " + key + "=" + value;
  }
  Log(LogLevel::kInfo, "client", "OK" + params, {});
  const auto complete = r.params.find("complete");
  if (complete != r.params.end() && complete->second == "0") {
    const auto trip = r.params.find("trip");
    Log(LogLevel::kWarn, "client",
        "run interrupted (" +
            (trip == r.params.end() ? std::string("tripped limit")
                                    : trip->second) +
            "); partial results above",
        {});
    return 3;
  }
  return 0;
}

int main(int argc, char** argv) {
  ArgParser args;
  (void)args.Parse(argc, argv);
  if (args.positional().empty()) return Usage();
  const std::string command = args.positional()[0];

  // GetInt maps unparsable values to 0, which for these two flags would
  // silently mean "unlimited" — exactly what a user typing a limit did
  // not ask for. Reject anything that is not a plain non-negative number.
  for (const char* flag : {"timeout-ms", "memory-budget-mb", "threads",
                           "iterations", "seed", "fault-hit",
                           "fault-stall-ms", "progress-ms", "sample-ms",
                           "tuples", "attributes", "queue-max"}) {
    if (!args.Has(flag)) continue;
    const std::string raw = args.GetString(flag, "");
    if (raw.empty() ||
        raw.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "error: --%s must be a non-negative integer, got \"%s\"\n",
                   flag, raw.c_str());
      return 2;
    }
  }
  // The pruning knobs. --arity/--topk are caps, and GetInt also returns 0
  // for garbage — so an explicit 0 (which would silently mean "unbounded")
  // is rejected along with anything non-numeric.
  for (const char* flag : {"arity", "topk"}) {
    if (!args.Has(flag)) continue;
    const std::string raw = args.GetString(flag, "");
    if (raw.empty() ||
        raw.find_first_not_of("0123456789") != std::string::npos ||
        args.GetInt(flag, 0) == 0) {
      std::fprintf(stderr,
                   "error: --%s must be a positive integer, got \"%s\"\n",
                   flag, raw.c_str());
      return 2;
    }
  }
  if (args.Has("algo") && !IsKnownMiner(args.GetString("algo", ""))) {
    std::fprintf(stderr, "error: unknown --algo \"%s\" (%s)\n",
                 args.GetString("algo", "").c_str(), MinerNames().c_str());
    return 2;
  }
  if (args.Has("delimiter")) {
    CsvOptions csv;
    const Status delimiter =
        SetCsvDelimiter(args.GetString("delimiter", ""), &csv);
    if (!delimiter.ok()) {
      std::fprintf(stderr, "error: --delimiter: %s\n",
                   delimiter.message().c_str());
      return 2;
    }
  }
  // Observability front matter: configure the logger before anything can
  // emit through it, and reject malformed flags as usage errors (exit 2)
  // before any work runs.
  if (args.Has("log-level")) {
    const std::string raw = args.GetString("log-level", "");
    Result<LogLevel> level = ParseLogLevel(raw);
    if (!level.ok()) {
      std::fprintf(stderr,
                   "error: --log-level must be debug|info|warn|error|off, "
                   "got \"%s\"\n",
                   raw.c_str());
      return 2;
    }
    SetLogLevel(level.value());
  }
  if (args.GetBool("log-json", false)) SetLogJson(true);
  const std::string trace_path = args.GetString("trace", "");
  if (!trace_path.empty() && !HasSuffix(trace_path, ".json")) {
    std::fprintf(stderr,
                 "error: --trace writes a chrome://tracing JSON file and "
                 "expects a .json path, got \"%s\"\n",
                 trace_path.c_str());
    return 2;
  }
  const std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    Result<MetricsFormat> format = MetricsFormatForPath(metrics_out);
    if (!format.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   format.status().ToString().c_str());
      return 2;
    }
  }
  if (args.Has("error")) {
    const std::string raw = args.GetString("error", "");
    char* end = nullptr;
    const double eps = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end == raw.c_str() || *end != '\0' ||
        !(eps >= 0.0) || eps >= 1.0) {
      std::fprintf(stderr,
                   "error: --error must be a real number in [0,1), got "
                   "\"%s\"\n",
                   raw.c_str());
      return 2;
    }
    if ((command != "mine" && command != "client") ||
        args.GetString("algo", "depminer") != "tane") {
      std::fprintf(stderr,
                   "error: --error (approximate discovery) requires "
                   "mine --algo=tane\n");
      return 2;
    }
  }
  if (args.Has("checkpoint-dir") &&
      (args.Has("arity") || args.Has("error") || args.Has("topk"))) {
    // A checkpointed job is keyed by the input fingerprint alone; resuming
    // it under different pruning knobs would splice mismatched phases.
    std::fprintf(stderr,
                 "error: --arity/--error/--topk cannot be combined with "
                 "--checkpoint-dir\n");
    return 2;
  }
  const int64_t timeout_ms = args.GetInt("timeout-ms", 0);
  if (timeout_ms > 0) {
    g_run_context.SetTimeout(std::chrono::milliseconds(timeout_ms));
  }
  const int64_t budget_mb = args.GetInt("memory-budget-mb", 0);
  if (budget_mb > 0) {
    g_run_context.SetMemoryBudget(static_cast<size_t>(budget_mb) * 1024 *
                                  1024);
  }
  (void)std::signal(SIGINT, HandleSigint);

  // Debug fault injection: install the requested plan for the whole
  // command. In a -DDEPMINER_FAULTS=OFF build the scope is inert; warn
  // instead of silently doing nothing.
  std::optional<FaultScope> fault_scope;
  if (args.Has("fault-site")) {
    FaultPlan plan;
    plan.site = args.GetString("fault-site", "");
    if (!plan.site.empty() && FindFaultSite(plan.site) == nullptr) {
      std::fprintf(stderr, "error: unknown fault site \"%s\"; sites:\n",
                   plan.site.c_str());
      for (const FaultSite& s : FaultSiteRegistry()) {
        std::fprintf(stderr, "  %s\n", s.name);
      }
      return 2;
    }
    plan.trigger_hit = static_cast<uint64_t>(args.GetInt("fault-hit", 0));
    plan.repeat = args.GetBool("fault-repeat", false);
    const int64_t stall = args.GetInt("fault-stall-ms", 2);
    plan.stall_ms = static_cast<uint32_t>(stall);
#if !DEPMINER_FAULTS_ENABLED
    std::fprintf(stderr,
                 "warning: this build has fault injection compiled out "
                 "(-DDEPMINER_FAULTS=OFF); --fault-site is inert\n");
#endif
    fault_scope.emplace(plan);
  }

  // Live progress: tracking plus a background heartbeat. Started before
  // command dispatch so the no-input commands (fuzz, checkpointed mine)
  // heartbeat too; the destructor stops the thread on every exit path.
  ProgressHeartbeat heartbeat(
      static_cast<int>(args.GetInt("progress-ms", 1000)));
  const bool progress = args.GetBool("progress", false);
  if (progress) {
    EnableProgressTracking(true);
    heartbeat.Start();
  }

  if (command == "inds") return CmdInds(args);
  if (command == "fks") return CmdFks(args);
  if (command == "implies") return CmdImplies(args);
  if (command == "diff") return CmdDiff(args);
  if (command == "catalog") return CmdCatalog(args);
  if (command == "fuzz") return CmdFuzz(args);
  if (command == "datagen") return CmdDatagen(args);
  if (command == "serve") return CmdServe(args);
  if (command == "client") return CmdClient(args);

  // A checkpointed mine reads the CSV itself: its job is keyed by the
  // file's content fingerprint.
  const bool checkpointed = command == "mine" && args.Has("checkpoint-dir");
  Result<Relation> input = checkpointed ? Relation() : Load(args);
  if (!input.ok()) {
    std::fprintf(stderr, "error: %s\n", input.status().ToString().c_str());
    return 1;
  }
  const Relation& relation = input.value();

  // Observability: the session starts after the CSV load so the trace
  // and the `phase/*` summary cover exactly the command's pipeline work
  // (what the paper's tables time), not file parsing; a checkpointed
  // mine parses inside `phase/strip`. The resource sampler shares the
  // session's lifetime (Start after, Stop before — the session contract).
  const bool want_metrics = args.GetBool("metrics", false);
  const bool tracing =
      !trace_path.empty() || !metrics_out.empty() || want_metrics;
  TraceSession session;
  ResourceSamplerOptions sampler_options;
  sampler_options.run_context = &g_run_context;
  if (args.Has("sample-ms")) {
    sampler_options.period_ms =
        static_cast<int>(args.GetInt("sample-ms", 50));
  }
  ResourceSampler sampler(sampler_options);
  if (tracing) {
    session.Start();
    sampler.Start();
  }

  int rc;
  if (checkpointed) {
    rc = CmdMineCheckpointed(args);
  } else if (command == "mine") {
    rc = CmdMine(relation, args);
  } else if (command == "armstrong") {
    rc = CmdArmstrong(relation, args);
  } else if (command == "keys") {
    rc = CmdKeys(relation);
  } else if (command == "normalize") {
    rc = CmdNormalize(relation);
  } else if (command == "verify") {
    rc = CmdVerify(relation, args);
  } else if (command == "repair") {
    rc = CmdRepair(relation, args);
  } else if (command == "stats") {
    rc = CmdStats(relation);
  } else if (command == "convert") {
    rc = CmdConvert(relation, args);
  } else if (command == "profile") {
    rc = CmdProfile(relation, args);
  } else {
    return Usage();
  }

  if (tracing) {
    // The heartbeat and sampler are instrumented work; both must be
    // quiet before the session merges its thread buffers.
    if (progress) heartbeat.Stop();
    sampler.Stop();
    // Recorded before Stop() so it lands in the session like any other
    // gauge: the context's bytes-charged high-water mark across every
    // stage the command ran.
    DEPMINER_TRACE_GAUGE_MAX("runctx.high_water_bytes",
                             g_run_context.high_water_bytes());
    session.Stop();
    if (!trace_path.empty()) {
      Status st = session.WriteChromeTrace(trace_path);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        if (rc == 0) rc = 1;
      } else {
        Log(LogLevel::kInfo, "fdtool",
            "trace written to " + trace_path + " (" +
                std::to_string(session.events().size()) + " events)",
            {LogStr("path", trace_path),
             LogNum("events",
                    static_cast<uint64_t>(session.events().size()))});
      }
    }
    if (!metrics_out.empty()) {
      Status st = WriteMetricsFile(session, metrics_out);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        if (rc == 0) rc = 1;
      } else {
        Log(LogLevel::kInfo, "fdtool", "metrics written to " + metrics_out,
            {LogStr("path", metrics_out)});
      }
    }
    if (want_metrics) {
      std::fprintf(stderr, "%s", session.MetricsSummary().c_str());
    }
  }
  return rc;
}
