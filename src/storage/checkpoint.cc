#include "storage/checkpoint.h"

#include <sys/stat.h>

#include "common/trace.h"
#include "core/lhs.h"
#include "fault/fault.h"
#include "storage/atomic_file.h"
#include "storage/binary_io.h"
#include "storage/streaming.h"

namespace depminer {

namespace {

constexpr std::string_view kMagic("DMK1", 4);
constexpr uint32_t kVersion = 1;
// Trailing marker: a file missing it was truncated mid-write (only
// possible for a non-atomic writer; ours renames complete files into
// place, so hitting this means foreign interference — either way the
// checkpoint is unusable and the caller mines afresh).
constexpr uint32_t kEndMarker = 0x314B4D44;  // "DMK1" little-endian
// Smallest encodings, for checking a count before it sizes anything: an
// attribute set is two words, an FD a set plus its RHS, a stored
// equivalence class a size plus at least two tuple ids.
constexpr size_t kSetBytes = 16;
constexpr size_t kFdBytes = kSetBytes + 4;
constexpr size_t kClassBytes = 8 + 2 * sizeof(TupleId);
// Defensive cap on a family or cover, as in the column reader: 2^32
// sets is ~64 GiB.
constexpr uint64_t kMaxCount = uint64_t{1} << 32;

template <typename Sink>
void EncodeSet(Sink& out, const AttributeSet& s) {
  out.U64(s.word(0));
  out.U64(s.word(1));
}

bool DecodeSet(binio::Reader& in, AttributeSet* s) {
  uint64_t w0 = 0, w1 = 0;
  if (!in.U64(&w0) || !in.U64(&w1)) return false;
  *s = AttributeSet::FromWords(w0, w1);
  return true;
}

template <typename Sink>
void EncodeSetFamily(Sink& out, const std::vector<AttributeSet>& sets) {
  out.U64(sets.size());
  for (const AttributeSet& s : sets) EncodeSet(out, s);
}

bool DecodeSetFamily(binio::Reader& in, std::vector<AttributeSet>* sets) {
  uint64_t count = 0;
  if (!in.U64(&count) || count > kMaxCount || !in.Fits(count, kSetBytes)) {
    return false;
  }
  sets->resize(count);
  for (AttributeSet& s : *sets) {
    if (!DecodeSet(in, &s)) return false;
  }
  return true;
}

/// The DMK1 layout; `Save` has rejected kNone already.
template <typename Sink>
void EncodeCheckpoint(const JobCheckpoint& c, Sink& out) {
  out.Bytes(kMagic.data(), kMagic.size());
  out.U32(kVersion);
  out.U64(c.fingerprint.hi);
  out.U64(c.fingerprint.lo);
  out.U32(static_cast<uint32_t>(c.algorithm));
  out.U32(static_cast<uint32_t>(c.phase));
  const size_t n = c.schema.num_attributes();
  out.U32(static_cast<uint32_t>(n));
  for (size_t a = 0; a < n; ++a) {
    out.String(c.schema.name(static_cast<AttributeId>(a)));
  }
  out.U64(c.num_tuples);

  switch (c.phase) {
    case MinePhase::kStrip:
      for (const StrippedPartition& part : c.partitions.partitions()) {
        out.U64(part.num_classes());
        for (const ClassView ec : part.classes()) {
          out.U64(ec.size());
          out.U32Array(ec.data(), ec.size());
        }
      }
      break;
    case MinePhase::kAgree:
      EncodeSetFamily(out, c.agree.sets);
      out.U32(c.agree.contains_empty ? 1 : 0);
      break;
    case MinePhase::kCmax:
      for (size_t a = 0; a < n; ++a) {
        EncodeSetFamily(out, c.max_sets.max_sets[a]);
        EncodeSetFamily(out, c.max_sets.cmax_sets[a]);
      }
      break;
    case MinePhase::kCover:
      out.U64(c.fds.size());
      for (const FunctionalDependency& fd : c.fds.fds()) {
        EncodeSet(out, fd.lhs);
        out.U32(fd.rhs);
      }
      break;
    case MinePhase::kNone:
      break;
  }
  out.U32(kEndMarker);
}

Status Corrupt(const std::string& path, const char* what) {
  return Status::IoError("'" + path + "': " + what);
}

}  // namespace

const char* ToString(MinePhase phase) {
  switch (phase) {
    case MinePhase::kNone:
      return "none";
    case MinePhase::kStrip:
      return "strip";
    case MinePhase::kAgree:
      return "agree";
    case MinePhase::kCmax:
      return "cmax";
    case MinePhase::kCover:
      return "cover";
  }
  return "unknown";
}

Status JobCheckpoint::Save(const std::string& path) const {
  if (phase == MinePhase::kNone) {
    return Status::InvalidArgument("cannot save a kNone checkpoint");
  }
  return AtomicWriteFile(path, binio::Encode([&](auto& out) {
                           EncodeCheckpoint(*this, out);
                         }));
}

Result<JobCheckpoint> JobCheckpoint::Load(const std::string& path) {
  Result<std::string> image = ReadWholeFile(path);
  if (!image.ok()) {
    if (image.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open checkpoint '" + path + "'");
    }
    return image.status();
  }
  binio::Reader in(image.value());
  if (!in.Expect(kMagic)) return Corrupt(path, "not a DMK1 checkpoint");
  uint32_t version = 0;
  if (!in.U32(&version) || version != kVersion) {
    return Corrupt(path, "unsupported checkpoint version");
  }

  JobCheckpoint ckpt;
  uint32_t algorithm = 0, phase = 0, n = 0;
  if (!in.U64(&ckpt.fingerprint.hi) || !in.U64(&ckpt.fingerprint.lo) ||
      !in.U32(&algorithm) || !in.U32(&phase) || !in.U32(&n)) {
    return Corrupt(path, "truncated header");
  }
  if (algorithm > static_cast<uint32_t>(AgreeSetAlgorithm::kIdentifiers)) {
    return Corrupt(path, "implausible algorithm");
  }
  if (phase < static_cast<uint32_t>(MinePhase::kStrip) ||
      phase > static_cast<uint32_t>(MinePhase::kCover)) {
    return Corrupt(path, "implausible phase");
  }
  if (n == 0 || n > AttributeSet::kMaxAttributes) {
    return Corrupt(path, "implausible attribute count");
  }
  ckpt.algorithm = static_cast<AgreeSetAlgorithm>(algorithm);
  ckpt.phase = static_cast<MinePhase>(phase);

  std::vector<std::string> names(n);
  for (std::string& name : names) {
    if (!in.String(&name)) return Corrupt(path, "truncated schema");
  }
  ckpt.schema = Schema(std::move(names));
  uint64_t num_tuples = 0;
  if (!in.U64(&num_tuples)) return Corrupt(path, "truncated header");
  ckpt.num_tuples = num_tuples;

  switch (ckpt.phase) {
    case MinePhase::kStrip: {
      std::vector<StrippedPartition> parts;
      parts.reserve(n);
      for (uint32_t a = 0; a < n; ++a) {
        uint64_t num_classes = 0;
        if (!in.U64(&num_classes) || num_classes > num_tuples ||
            !in.Fits(num_classes, kClassBytes)) {
          return Corrupt(path, "truncated partition");
        }
        std::vector<EquivalenceClass> classes(num_classes);
        for (EquivalenceClass& ec : classes) {
          uint64_t size = 0;
          if (!in.U64(&size) || size < 2 || size > num_tuples ||
              !in.Fits(size, sizeof(TupleId))) {
            return Corrupt(path, "implausible equivalence class");
          }
          ec.resize(size);
          in.U32Array(ec.data(), ec.size());
          for (TupleId t : ec) {
            if (t >= num_tuples) return Corrupt(path, "tuple id out of range");
          }
        }
        parts.emplace_back(std::move(classes), num_tuples);
      }
      ckpt.partitions =
          StrippedPartitionDatabase::FromParts(std::move(parts), num_tuples);
      break;
    }
    case MinePhase::kAgree: {
      uint32_t contains_empty = 0;
      if (!DecodeSetFamily(in, &ckpt.agree.sets) ||
          !in.U32(&contains_empty)) {
        return Corrupt(path, "truncated agree sets");
      }
      ckpt.agree.contains_empty = contains_empty != 0;
      ckpt.agree.num_tuples = num_tuples;
      ckpt.agree.num_attributes = n;
      break;
    }
    case MinePhase::kCmax: {
      ckpt.max_sets.num_attributes = n;
      ckpt.max_sets.max_sets.resize(n);
      ckpt.max_sets.cmax_sets.resize(n);
      for (uint32_t a = 0; a < n; ++a) {
        if (!DecodeSetFamily(in, &ckpt.max_sets.max_sets[a]) ||
            !DecodeSetFamily(in, &ckpt.max_sets.cmax_sets[a])) {
          return Corrupt(path, "truncated max-set families");
        }
      }
      break;
    }
    case MinePhase::kCover: {
      uint64_t num_fds = 0;
      if (!in.U64(&num_fds) || num_fds > kMaxCount ||
          !in.Fits(num_fds, kFdBytes)) {
        return Corrupt(path, "truncated FD cover");
      }
      std::vector<FunctionalDependency> fds(num_fds);
      for (FunctionalDependency& fd : fds) {
        uint32_t rhs = 0;
        if (!DecodeSet(in, &fd.lhs) || !in.U32(&rhs) || rhs >= n) {
          return Corrupt(path, "truncated FD cover");
        }
        fd.rhs = rhs;
      }
      ckpt.fds = FdSet(n, std::move(fds));
      break;
    }
    case MinePhase::kNone:
      break;  // unreachable: phase validated above
  }

  uint32_t end = 0;
  if (!in.U32(&end) || end != kEndMarker) {
    return Corrupt(path, "missing end marker (truncated checkpoint)");
  }
  return ckpt;
}

std::string CheckpointPathFor(const std::string& dir, const Fingerprint& fp,
                              AgreeSetAlgorithm algorithm) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += fp.ToHex();
  path += '.';
  path += ToString(algorithm);
  path += ".dmk";
  return path;
}

namespace {

/// The job key: the file's raw bytes plus everything else that changes
/// the parse (CSV dialect options). The algorithm is kept out of the
/// fingerprint and put in the file name instead, so the two jobs of a
/// dataset mined with both algorithms coexist in one directory.
Result<Fingerprint> JobFingerprint(const std::string& path,
                                   const CsvOptions& csv) {
  Result<Fingerprint> file_fp = FingerprintFile(path);
  if (!file_fp.ok()) return file_fp.status();
  Fingerprinter hasher;
  hasher.UpdateU64(file_fp.value().hi);
  hasher.UpdateU64(file_fp.value().lo);
  hasher.UpdateU64(static_cast<uint64_t>(csv.delimiter));
  hasher.UpdateU64((csv.has_header ? 1u : 0u) | (csv.allow_quoting ? 2u : 0u) |
                   (csv.nulls_distinct ? 4u : 0u));
  hasher.UpdateString(csv.null_token);
  return hasher.Finish();
}

}  // namespace

Result<CheckpointedMineResult> MineCsvWithCheckpoints(
    const std::string& path, const CheckpointedMineOptions& options) {
  if (options.checkpoint_dir.empty()) {
    return Status::InvalidArgument("checkpoint_dir is required");
  }
  if (options.algorithm == AgreeSetAlgorithm::kNaive) {
    return Status::InvalidArgument(
        "checkpointed mining supports the couples and identifiers "
        "algorithms (naive needs the materialized relation)");
  }

  // The job key (a hash of the whole CSV), the resume probe and every
  // boundary save run under `phase/checkpoint`, beside the mining phases.
  CheckpointedMineResult out;
  JobCheckpoint ckpt;
  {
    PhaseTimer checkpoint_timer("phase/checkpoint", nullptr);
    Result<Fingerprint> fp = JobFingerprint(path, options.csv);
    if (!fp.ok()) return fp.status();

    // One level of directory creation (a deeper missing hierarchy is a
    // caller mistake worth surfacing at the first save instead).
    (void)::mkdir(options.checkpoint_dir.c_str(), 0755);

    out.fingerprint = fp.value();
    out.checkpoint_path = CheckpointPathFor(options.checkpoint_dir,
                                            fp.value(), options.algorithm);

    Result<JobCheckpoint> loaded = JobCheckpoint::Load(out.checkpoint_path);
    // No file bytes back the tuple count (stripped classes omit
    // singletons), yet the agree phase sizes its label table by it. Every
    // CSV record takes at least one byte, so a count above the file's
    // size is doctored.
    struct stat csv_stat {};
    if (loaded.ok() && loaded.value().fingerprint == fp.value() &&
        loaded.value().algorithm == options.algorithm &&
        ::stat(path.c_str(), &csv_stat) == 0 &&
        loaded.value().num_tuples <= static_cast<uint64_t>(csv_stat.st_size)) {
      ckpt = std::move(loaded).value();
      out.resumed_from = ckpt.phase;
    }
    // Missing, corrupt, or mismatched (the path collided but the content
    // key or the tuple count disagrees): mine afresh; the first boundary
    // save overwrites it.
  }

  RunContext* ctx = options.run_context;
  // Phase-boundary save + the `job/stall` fault site, whose hit index is
  // the number of boundaries crossed this run — a test or the
  // kill-and-resume smoke targets "the k-th boundary" with trigger_hit=k
  // and gets a deterministic window while the checkpoint already exists.
  auto save = [&](const JobCheckpoint& c) -> Status {
    PhaseTimer checkpoint_timer("phase/checkpoint", nullptr);
    Status st = c.Save(out.checkpoint_path);
    DEPMINER_FAULT_STALL("job/stall");
    return st;
  };

  // Each phase runs under the span MineDependencies times it with; here
  // `phase/strip` also covers the CSV parse.
  if (ckpt.phase == MinePhase::kNone) {
    StreamingOptions sopt;
    sopt.csv = options.csv;
    sopt.value_sample_size = 0;  // discovery only; no Armstrong values
    sopt.run_context = ctx;
    Result<StreamingExtract> extract = [&] {
      PhaseTimer strip_timer("phase/strip", nullptr);
      return ExtractFromCsv(path, sopt);
    }();
    if (!extract.ok()) return extract.status();
    ckpt.fingerprint = out.fingerprint;
    ckpt.algorithm = options.algorithm;
    ckpt.phase = MinePhase::kStrip;
    ckpt.schema = std::move(extract.value().schema);
    ckpt.num_tuples = extract.value().num_tuples;
    ckpt.partitions = std::move(extract.value().partitions);
    DEPMINER_RETURN_NOT_OK(save(ckpt));
  }
  out.schema = ckpt.schema;
  out.num_tuples = ckpt.num_tuples;

  if (ckpt.phase == MinePhase::kStrip) {
    AgreeSetOptions aopt;
    aopt.num_threads = options.num_threads;
    aopt.run_context = ctx;
    AgreeSetResult agree = [&] {
      PhaseTimer agree_timer("phase/agree", nullptr);
      return options.algorithm == AgreeSetAlgorithm::kIdentifiers
                 ? ComputeAgreeSetsIdentifiers(ckpt.partitions, aopt)
                 : ComputeAgreeSetsCouples(ckpt.partitions, aopt);
    }();
    if (!agree.status.ok()) {
      // The kStrip checkpoint on disk stays the resume point.
      out.complete = false;
      out.run_status = agree.status;
      return out;
    }
    ckpt.agree = std::move(agree);
    ckpt.phase = MinePhase::kAgree;
    ckpt.partitions = StrippedPartitionDatabase();
    DEPMINER_RETURN_NOT_OK(save(ckpt));
  }

  if (ckpt.phase == MinePhase::kAgree) {
    MaxSetResult max_sets = [&] {
      PhaseTimer max_timer("phase/cmax", nullptr);
      return ComputeMaxSets(ckpt.agree, options.num_threads, ctx);
    }();
    if (!max_sets.status.ok()) {
      out.complete = false;
      out.run_status = max_sets.status;
      return out;
    }
    ckpt.max_sets = std::move(max_sets);
    ckpt.phase = MinePhase::kCmax;
    ckpt.agree = AgreeSetResult();
    DEPMINER_RETURN_NOT_OK(save(ckpt));
  }

  if (ckpt.phase == MinePhase::kCmax) {
    LhsResult lhs = [&] {
      PhaseTimer lhs_timer("phase/lhs", nullptr);
      return ComputeLhs(ckpt.max_sets, options.num_threads, ctx);
    }();
    FdSet fds = [&] {
      PhaseTimer output_timer("phase/output", nullptr);
      return OutputFds(lhs);
    }();
    if (!lhs.status.ok()) {
      // Salvage the finished attributes' FDs for the caller, but do not
      // checkpoint them: kCover means *the* cover, not part of one.
      out.fds = std::move(fds);
      out.complete = false;
      out.run_status = lhs.status;
      return out;
    }
    ckpt.fds = std::move(fds);
    ckpt.phase = MinePhase::kCover;
    ckpt.max_sets = MaxSetResult();
    DEPMINER_RETURN_NOT_OK(save(ckpt));
  }

  out.fds = ckpt.fds;
  return out;
}

}  // namespace depminer
