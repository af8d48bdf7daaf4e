#include "server/result_cache.h"

#include <cstring>

#include "storage/checkpoint.h"

namespace depminer {

Fingerprint ResultCache::KeyFor(const Fingerprint& dataset,
                                const std::string& algorithm,
                                const MiningOptions& mining) {
  Fingerprinter hasher;
  hasher.UpdateString("result-cache-v1");
  hasher.UpdateU64(dataset.hi);
  hasher.UpdateU64(dataset.lo);
  hasher.UpdateString(algorithm);
  hasher.UpdateU64(mining.max_lhs_arity);
  // The g3 threshold participates bit-exactly (it changes which AFDs
  // qualify); NaN never reaches here (the CLI and server validate).
  uint64_t error_bits = 0;
  static_assert(sizeof(error_bits) == sizeof(mining.max_g3_error));
  std::memcpy(&error_bits, &mining.max_g3_error, sizeof(error_bits));
  hasher.UpdateU64(error_bits);
  hasher.UpdateU64(mining.top_k);
  hasher.UpdateU64(mining.force_error_validation ? 1 : 0);
  return hasher.Finish();
}

std::string ResultCache::PathFor(const Fingerprint& key) const {
  return directory_ + "/" + key.ToHex() + ".cover.dmk";
}

Result<FdSet> ResultCache::Lookup(const Fingerprint& key,
                                  Schema* schema) const {
  Result<JobCheckpoint> loaded = JobCheckpoint::Load(PathFor(key));
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no cached cover for " + key.ToHex());
    }
    // Corrupt cache entries are misses, never failures: the caller
    // re-mines and the Store overwrite heals the entry.
    return Status::NotFound("cached cover for " + key.ToHex() +
                            " unreadable: " + loaded.status().message());
  }
  const JobCheckpoint& job = loaded.value();
  if (job.phase != MinePhase::kCover || job.fingerprint != key) {
    return Status::NotFound("cached cover for " + key.ToHex() +
                            " is stale or mis-keyed");
  }
  if (schema != nullptr) *schema = job.schema;
  return job.fds;
}

Status ResultCache::Store(const Fingerprint& key, const Schema& schema,
                          size_t tuples, const FdSet& fds) const {
  JobCheckpoint job;
  job.fingerprint = key;
  job.phase = MinePhase::kCover;
  job.schema = schema;
  job.num_tuples = tuples;
  job.fds = fds;
  return job.Save(PathFor(key));
}

}  // namespace depminer
