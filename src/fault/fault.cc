#include "fault/fault.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/run_context.h"

namespace depminer {

const std::vector<FaultSite>& FaultSiteRegistry() {
  // Stable order: the fault sweep and docs walk this list.
  static const std::vector<FaultSite> kSites = {
      {"alloc/agree", FaultKind::kAlloc,
       "agree-set working-set charge (couples/identifiers/naive)"},
      {"alloc/cmax", FaultKind::kAlloc,
       "max-set derivation charge in ComputeMaxSets"},
      {"alloc/lhs", FaultKind::kAlloc,
       "left-hand-side transversal expansion in ComputeLhs"},
      {"alloc/tane", FaultKind::kAlloc,
       "TANE level-wise lattice growth charge"},
      {"alloc/fastfds", FaultKind::kAlloc,
       "FastFDs difference-set cover search charge"},
      {"alloc/fdep", FaultKind::kAlloc,
       "FDEP negative-cover specialization charge"},
      {"alloc/streaming", FaultKind::kAlloc,
       "governed CSV load working-set charge (streaming extraction)"},
      {"alloc/partition_cache", FaultKind::kAlloc,
       "partition-product cache resident-byte charge"},
      {"alloc/catalog", FaultKind::kAlloc,
       "catalog Put admission charge before the column-file write"},
      {"io/manifest-write", FaultKind::kIoError,
       "catalog manifest save fails before publishing the new state"},
      {"io/csv-read", FaultKind::kIoError,
       "read(2) on the CSV byte stream fails with EIO"},
      {"io/csv-short-read", FaultKind::kShortRead,
       "read(2) on the CSV byte stream returns fewer bytes than asked"},
      {"io/csv-eintr", FaultKind::kEintr,
       "read(2) on the CSV byte stream fails with EINTR"},
      {"deadline/jitter", FaultKind::kDeadline,
       "RunContext::Check reports the deadline early"},
      {"pool/lane-stall", FaultKind::kStall,
       "worker-pool lane sleeps between block claims"},
      {"job/stall", FaultKind::kStall,
       "checkpointed-mine driver sleeps after a phase boundary"},
      {"serve/stall", FaultKind::kStall,
       "serve MINE sleeps between the cache lookup and the catalog load"},
  };
  return kSites;
}

const FaultSite* FindFaultSite(const std::string& name) {
  for (const FaultSite& s : FaultSiteRegistry()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct ActivePlan {
  FaultPlan plan;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};
};

// Process-wide active plan. Installed/removed only by FaultScope; sites
// read it with a relaxed load, which is the whole cost of an idle site.
std::atomic<ActivePlan*> g_plan{nullptr};

FaultKind KindFor(const char* site) {
  // The prefix encodes the behavior so Poll() need not consult the
  // registry on the hot path.
  if (std::strncmp(site, "alloc/", 6) == 0) return FaultKind::kAlloc;
  if (std::strncmp(site, "io/", 3) == 0) {
    if (std::strcmp(site, "io/csv-eintr") == 0) return FaultKind::kEintr;
    if (std::strcmp(site, "io/csv-short-read") == 0)
      return FaultKind::kShortRead;
    return FaultKind::kIoError;
  }
  if (std::strncmp(site, "deadline/", 9) == 0) return FaultKind::kDeadline;
  return FaultKind::kStall;
}

}  // namespace

FaultPlan FaultPlan::FromSeed(uint64_t seed) {
  const std::vector<FaultSite>& sites = FaultSiteRegistry();
  const uint64_t a = SplitMix64(seed);
  const uint64_t b = SplitMix64(a);
  FaultPlan plan;
  plan.site = sites[a % sites.size()].name;
  plan.trigger_hit = b % 16;
  plan.repeat = (SplitMix64(b) & 1) != 0;
  return plan;
}

struct FaultScope::Impl {
  ActivePlan active;
};

FaultScope::FaultScope(FaultPlan plan) : impl_(new Impl) {
  impl_->active.plan = std::move(plan);
#if DEPMINER_FAULTS_ENABLED
  ActivePlan* expected = nullptr;
  bool installed = g_plan.compare_exchange_strong(
      expected, &impl_->active, std::memory_order_release,
      std::memory_order_relaxed);
  assert(installed && "nested FaultScope is not supported");
  (void)installed;
#endif
}

FaultScope::~FaultScope() {
#if DEPMINER_FAULTS_ENABLED
  g_plan.store(nullptr, std::memory_order_release);
#endif
  delete impl_;
}

uint64_t FaultScope::hits() const {
  return impl_->active.hits.load(std::memory_order_relaxed);
}

uint64_t FaultScope::fires() const {
  return impl_->active.fires.load(std::memory_order_relaxed);
}

namespace fault {

bool Active() {
  return g_plan.load(std::memory_order_relaxed) != nullptr;
}

bool ShouldFire(const char* site) {
  ActivePlan* active = g_plan.load(std::memory_order_acquire);
  if (active == nullptr) return false;
  const FaultPlan& plan = active->plan;
  if (!plan.site.empty() && plan.site != site) return false;
  const uint64_t idx = active->hits.fetch_add(1, std::memory_order_relaxed);
  const bool fire =
      idx == plan.trigger_hit || (plan.repeat && idx > plan.trigger_hit);
  if (fire) active->fires.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

Status Poll(const char* site) {
  if (!ShouldFire(site)) return Status::OK();
  switch (KindFor(site)) {
    case FaultKind::kAlloc:
      return Status::CapacityExceeded(std::string("injected fault: ") + site);
    case FaultKind::kDeadline:
      return Status::DeadlineExceeded(std::string("injected fault: ") + site);
    default:
      return Status::IoError(std::string("injected fault: ") + site);
  }
}

void MaybeFailAlloc(const char* site, RunContext* ctx) {
  if (!ShouldFire(site)) return;
  if (ctx != nullptr) ctx->ForceTrip(StatusCode::kCapacityExceeded);
}

void MaybeStall(const char* site) {
  if (!ShouldFire(site)) return;
  ActivePlan* active = g_plan.load(std::memory_order_acquire);
  uint32_t ms = active != nullptr ? active->plan.stall_ms : 0;
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace fault

}  // namespace depminer
