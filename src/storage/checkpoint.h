#pragma once

#include <string>
#include <vector>

#include "catalog/fingerprint.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/agree_sets.h"
#include "core/max_sets.h"
#include "fd/fd_set.h"
#include "partition/partition_database.h"
#include "relation/csv.h"
#include "relation/schema.h"

namespace depminer {

/// The last pipeline phase a checkpoint has completed. Phases are the
/// boundaries of Figure 1's pipeline; each is a pure function of the
/// previous one's artifact, which is what makes resume-to-bit-identical
/// possible: replaying from any phase reproduces exactly the cover an
/// uninterrupted run produces, for any thread count.
enum class MinePhase : uint32_t {
  kNone = 0,
  kStrip = 1,  ///< stripped partition database extracted
  kAgree = 2,  ///< agree sets computed
  kCmax = 3,   ///< max/cmax families derived
  kCover = 4,  ///< LHS covers found; the job is done
};

const char* ToString(MinePhase phase);

/// On-disk snapshot of one mining job at a phase boundary (format DMK1).
/// Only the *latest* phase's artifact is stored — each phase's input is
/// the previous phase's output, so nothing else is needed to continue.
///
/// A checkpoint is keyed by the dataset's content fingerprint plus the
/// agree-set algorithm; `Load` callers must verify both before resuming
/// (`MineCsvWithCheckpoints` does). Saves are crash-safe: the file is
/// written to a temporary sibling, fsync'd, and renamed over the final
/// path, so a checkpoint either exists completely or not at all — a
/// `kill -9` mid-save leaves the previous checkpoint intact.
struct JobCheckpoint {
  Fingerprint fingerprint;
  AgreeSetAlgorithm algorithm = AgreeSetAlgorithm::kCouples;
  MinePhase phase = MinePhase::kNone;
  Schema schema;
  size_t num_tuples = 0;

  // Phase payload (exactly one is populated, per `phase`):
  StrippedPartitionDatabase partitions;  ///< kStrip
  AgreeSetResult agree;                  ///< kAgree
  MaxSetResult max_sets;                 ///< kCmax
  FdSet fds;                             ///< kCover

  Status Save(const std::string& path) const;

  /// Loads and structurally validates a checkpoint. Corruption or
  /// truncation is an IoError — callers fall back to a fresh mine.
  static Result<JobCheckpoint> Load(const std::string& path);
};

/// The checkpoint file a (dataset, algorithm) job uses inside `dir`:
/// `<fingerprint-hex>.<algorithm>.dmk`.
std::string CheckpointPathFor(const std::string& dir, const Fingerprint& fp,
                              AgreeSetAlgorithm algorithm);

/// Options for `MineCsvWithCheckpoints`. Only the couples and identifiers
/// algorithms are supported (the naive one reads the relation, which the
/// extraction releases once r̂ is built).
struct CheckpointedMineOptions {
  AgreeSetAlgorithm algorithm = AgreeSetAlgorithm::kCouples;
  size_t num_threads = 1;
  RunContext* run_context = nullptr;
  CsvOptions csv;
  /// Directory for checkpoint files; must exist. Required.
  std::string checkpoint_dir;
};

struct CheckpointedMineResult {
  Schema schema;
  FdSet fds;
  size_t num_tuples = 0;
  Fingerprint fingerprint;
  /// Phase loaded from a prior run's checkpoint (kNone = fresh mine).
  MinePhase resumed_from = MinePhase::kNone;
  /// The job's checkpoint file (the latest state on disk).
  std::string checkpoint_path;
  /// Graceful degradation, as in DepMinerResult: false when the
  /// governing RunContext tripped; `fds` then holds whatever the
  /// interrupted phase salvaged and the checkpoint on disk still holds
  /// the last *completed* phase, so a rerun resumes there.
  bool complete = true;
  Status run_status;
};

/// Streaming mine with crash-safe phase checkpoints: fingerprints the
/// CSV, resumes from `checkpoint_dir`'s checkpoint when one matches
/// (same content, same algorithm), and saves a new checkpoint at every
/// phase boundary. A job interrupted at any point — deadline, SIGINT,
/// even `kill -9` — reruns to a cover bit-identical to an uninterrupted
/// mine, paying only for the phases past its last completed boundary; a
/// finished job (`kCover` checkpoint) is served straight from disk.
Result<CheckpointedMineResult> MineCsvWithCheckpoints(
    const std::string& path, const CheckpointedMineOptions& options);

}  // namespace depminer
