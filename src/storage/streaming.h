#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "fd/fd_set.h"
#include "partition/partition_database.h"
#include "relation/csv.h"
#include "relation/schema.h"

namespace depminer {

/// Options for streaming extraction.
struct StreamingOptions {
  CsvOptions csv;
  /// How many distinct values per column to retain for real-world
  /// Armstrong construction (Equation 2 needs at most |MAX(dep(r))| + 1
  /// per column; the extractor cannot know that in advance, so it keeps
  /// the first `value_sample_size` in first-occurrence order). 0 keeps
  /// none (discovery only).
  size_t value_sample_size = 4096;
  /// Optional resource governance: the CSV load charges its working set
  /// and checks it every 1024 records (see ReadCsvRelation); mining and
  /// Armstrong construction inherit it. A trip during extraction fails
  /// the whole pass (a partial partition database would yield wrong FDs,
  /// not partial ones); a trip later degrades gracefully — see
  /// StreamingMineResult::complete.
  RunContext* run_context = nullptr;
};

/// What one pass over a CSV leaves behind: exactly the inputs Dep-Miner
/// needs, and not the relation.
///
/// This realizes the paper's operating model (§1, §3): "our approach is
/// defined under the assumption of limited main memory resources and its
/// feasibility does not depend on the volume of handled data. Since
/// database accesses are only performed during the computation of agree
/// sets, Dep-Miner takes in input a small representation of a relation" —
/// the stripped partition database. Where the paper pulled rows from a
/// DBMS over ODBC, we read them from CSV through the shared loader: the
/// dictionary-encoded relation (a code per cell, each distinct value
/// once) lives only until r̂ is stripped from it, and the extract keeps
/// r̂ plus the value samples — never O(rows × row width) of string data.
struct StreamingExtract {
  Schema schema;
  StrippedPartitionDatabase partitions;
  /// How many values Equation 2 may draw per attribute (`ArmstrongValues`:
  /// distinct strings, all NULLs one value) — the Proposition 1 quantities.
  std::vector<size_t> distinct_counts;
  /// The first `value_sample_size` of those values per column, in
  /// first-occurrence order (the v_{A,i} of Equation 2).
  std::vector<std::vector<std::string>> value_samples;
  size_t num_tuples = 0;
};

/// Runs the single pass: `ReadCsvRelation`, then
/// `StrippedPartitionDatabase::FromRelation`, then the counts and samples
/// off the relation's dictionaries, then the relation is released.
Result<StreamingExtract> ExtractFromCsv(const std::string& path,
                                        const StreamingOptions& options = {});

/// The same over in-memory CSV text, through `ParseCsvRelation` (tests).
Result<StreamingExtract> ExtractFromCsvText(const std::string& content,
                                            const StreamingOptions& options = {});

/// End-to-end streaming mining: one pass over the CSV, Dep-Miner on the
/// extracted stripped partition database, real-world Armstrong relation
/// from the retained value samples. Equivalent to
/// `MineDependencies(ReadCsvRelation(path))` but holds no relation while
/// mining (only r̂ and the per-column samples).
struct StreamingMineResult {
  StreamingExtract extract;
  FdSet fds;
  std::optional<Relation> armstrong;
  Status armstrong_status;
  /// False when StreamingOptions::run_context tripped after extraction;
  /// `fds` then holds whatever the interrupted mining phase completed and
  /// `run_status` the cause.
  bool complete = true;
  Status run_status;
};

Result<StreamingMineResult> MineCsvStreaming(
    const std::string& path, const StreamingOptions& options = {});

}  // namespace depminer
