#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.h"
#include "common/parallel.h"
#include "common/run_context.h"
#include "core/mine_by_name.h"
#include "fault/fault.h"
#include "relation/csv.h"
#include "report/profile.h"

namespace depminer {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// The poll/recv tick: how often idle paths recheck the shutdown latch.
constexpr int kTickMs = 100;

std::string ParamOr(const Request& request, const char* key,
                    const std::string& fallback) {
  const auto it = request.params.find(key);
  return it == request.params.end() ? fallback : it->second;
}

}  // namespace

/// Request telemetry. Counters are lock-free; the per-verb latency
/// histograms share one mutex (touched once per request, never inside
/// mining).
struct Server::Metrics {
  Clock::time_point start = Clock::now();
  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> cache_hit{0};
  std::atomic<uint64_t> cache_miss{0};

  std::mutex mu;
  std::map<std::string, TraceHistogram> latency_by_verb;  // guarded by mu

  void RecordRequest(const std::string& verb, uint64_t ns, bool ok) {
    requests.fetch_add(1, std::memory_order_relaxed);
    if (!ok) errors.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    latency_by_verb[verb].Record(ns);
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), metrics_(new Metrics) {}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

bool Server::ShutdownRequested() const {
  if (shutdown_.load(std::memory_order_acquire)) return true;
  return options_.shutdown_flag != nullptr &&
         options_.shutdown_flag->load(std::memory_order_acquire);
}

Status Server::Start() {
  Result<Catalog> catalog = Catalog::Open(options_.catalog_dir);
  if (!catalog.ok()) return catalog.status();
  catalog_.reset(new Catalog(std::move(catalog).value()));

  const std::string cache_dir = options_.catalog_dir + "/cache";
  if (::mkdir(cache_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create cache directory '" + cache_dir +
                           "'");
  }
  cache_.reset(new ResultCache(cache_dir));

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: '" +
                                   options_.socket_path + "'");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  // A stale socket file (previous daemon killed hard) would make bind
  // fail; the daemon owns its socket path, so clear it. Two daemons on
  // one path are a deployment error this cannot (and does not) detect.
  ::unlink(options_.socket_path.c_str());

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("cannot create server socket");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError("cannot bind '" + options_.socket_path +
                           "' (errno " + std::to_string(errno) + ")");
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IoError("cannot listen on '" + options_.socket_path + "'");
  }
  Log(LogLevel::kInfo, "server", "serving catalog",
      {LogStr("catalog", options_.catalog_dir),
       LogStr("socket", options_.socket_path),
       LogNum("datasets", static_cast<uint64_t>(catalog_->size())),
       LogNum("max_connections",
              static_cast<uint64_t>(options_.max_connections))});
  WriteMetricsIfConfigured();
  return Status::OK();
}

Status Server::Serve() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Serve() before Start()");
  }
  while (!ShutdownRequested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("poll on server socket failed");
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Status::IoError("accept failed (errno " + std::to_string(errno) +
                             ")");
    }
    // Admission control: a connection beyond the bound is told why and
    // turned away — a framed rejection the client can read, instead of
    // an invisible queue that grows until memory does not.
    if (inflight_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      metrics_->rejected.fetch_add(1, std::memory_order_relaxed);
      SendFrame(fd, FormatError(Status::ResourceExhausted(
                        "server at capacity (" +
                        std::to_string(options_.max_connections) +
                        " connections); retry later")));
      ::close(fd);
      WriteMetricsIfConfigured();
      continue;
    }
    metrics_->connections.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    PoolRunDetached([this, fd] {
      HandleConnection(fd);
      // Notify while holding the lock: once it is released, Serve() may
      // see the count reach zero, return, and let ~Server destroy the
      // condition variable.
      std::lock_guard<std::mutex> lock(drain_mu_);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      drain_cv_.notify_all();
    });
  }
  // Graceful drain: stop accepting (close + unlink so new connects fail
  // fast), let every in-flight connection finish its request, then
  // publish the final metrics.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  Log(LogLevel::kInfo, "server", "draining",
      {LogNum("inflight", static_cast<uint64_t>(
                              inflight_.load(std::memory_order_acquire)))});
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_.load(std::memory_order_acquire) == 0;
    });
  }
  WriteMetricsIfConfigured();
  Log(LogLevel::kInfo, "server", "drained",
      {LogNum("requests", metrics_->requests.load(std::memory_order_relaxed)),
       LogNum("cache_hits",
              metrics_->cache_hit.load(std::memory_order_relaxed))});
  return Status::OK();
}

void Server::HandleConnection(int fd) {
  // The receive timeout is the connection's shutdown-poll tick: an idle
  // keep-alive connection wakes up here, notices the drain, and closes
  // instead of pinning the daemon open.
  timeval tv{};
  tv.tv_usec = kTickMs * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (!ShutdownRequested()) {
    std::string payload;
    Result<bool> got = RecvFrame(fd, &payload);
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kDeadlineExceeded) continue;
      break;  // framing or socket error; nothing sane to answer
    }
    if (!got.value()) break;  // clean EOF
    const std::string response = Dispatch(payload);
    if (!SendFrame(fd, response).ok()) break;
    WriteMetricsIfConfigured();
  }
  ::close(fd);
}

std::string Server::Dispatch(const std::string& payload) {
  const Clock::time_point start = Clock::now();
  Result<Request> parsed = ParseRequest(payload);
  if (!parsed.ok()) {
    metrics_->RecordRequest("INVALID", ElapsedNs(start), false);
    return FormatError(parsed.status());
  }
  const Request& request = parsed.value();
  std::string response;
  if (request.verb == "PING") {
    response = FormatOk({}, "");
  } else if (request.verb == "LIST") {
    response = DoList();
  } else if (request.verb == "INFO") {
    response = DoInfo(request);
  } else if (request.verb == "PUT") {
    response = DoPut(request);
  } else if (request.verb == "DROP") {
    response = DoDrop(request);
  } else if (request.verb == "MINE") {
    response = DoMine(request);
  } else if (request.verb == "PROFILE") {
    response = DoProfile(request);
  } else if (request.verb == "STATS") {
    response = DoStats();
  } else {
    response = FormatError(
        Status::InvalidArgument("unknown command '" + request.verb + "'"));
  }
  const bool ok = response.rfind("OK", 0) == 0;
  metrics_->RecordRequest(request.verb, ElapsedNs(start), ok);
  Log(LogLevel::kDebug, "server", "request",
      {LogStr("verb", request.verb), LogBool("ok", ok)});
  return response;
}

std::string Server::DoList() {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  std::string body;
  const std::vector<std::string> names = catalog_->List();
  for (const std::string& name : names) {
    body += name;
    body += '\n';
  }
  return FormatOk({{"count", std::to_string(names.size())}}, body);
}

std::string Server::DoInfo(const Request& request) {
  if (request.positional.size() != 1) {
    return FormatError(Status::InvalidArgument("usage: INFO <name>"));
  }
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  Result<Catalog::DatasetInfo> info = catalog_->Info(request.positional[0]);
  if (!info.ok()) return FormatError(info.status());
  return FormatOk(
      {{"attributes", std::to_string(info.value().attributes)},
       {"tuples", std::to_string(info.value().tuples)},
       {"fingerprint", info.value().fingerprint.ToHex()}},
      "");
}

std::string Server::DoPut(const Request& request) {
  if (request.positional.size() != 1) {
    return FormatError(
        Status::InvalidArgument("usage: PUT <name> with a CSV body"));
  }
  const std::string& name = request.positional[0];
  CsvOptions csv;
  csv.has_header = ParamOr(request, "header", "1") != "0";
  const Status delimiter =
      SetCsvDelimiter(ParamOr(request, "delimiter", ","), &csv);
  if (!delimiter.ok()) return FormatError(delimiter);
  Result<Relation> relation = ParseCsvRelation(request.body, csv);
  if (!relation.ok()) return FormatError(relation.status());
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  const Status put = catalog_->Put(name, relation.value());
  if (!put.ok()) return FormatError(put);
  Result<Catalog::DatasetInfo> info = catalog_->Info(name);
  if (!info.ok()) return FormatError(info.status());
  return FormatOk(
      {{"attributes", std::to_string(info.value().attributes)},
       {"tuples", std::to_string(info.value().tuples)},
       {"fingerprint", info.value().fingerprint.ToHex()}},
      "");
}

std::string Server::DoDrop(const Request& request) {
  if (request.positional.size() != 1) {
    return FormatError(Status::InvalidArgument("usage: DROP <name>"));
  }
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  const Status dropped = catalog_->Drop(request.positional[0]);
  if (!dropped.ok()) return FormatError(dropped);
  return FormatOk({}, "");
}

std::string Server::DoMine(const Request& request) {
  if (request.positional.size() != 1) {
    return FormatError(Status::InvalidArgument(
        "usage: MINE <name> [algo=] [threads=] [arity=] [error=] [topk=] "
        "[timeout_ms=] [budget_mb=] [nocache=1]"));
  }
  const std::string& name = request.positional[0];
  Result<ParsedMineRequest> parsed =
      ParseMineRequest(request.params, KeySpelling::kWire);
  if (!parsed.ok()) return FormatError(parsed.status());
  const std::string& algo = parsed.value().algo;
  MineRequest& mine = parsed.value().request;
  const MiningOptions& mining = mine.mining;
  // No threads= means the daemon's own lanes. A request may use fewer
  // lanes than that, never more: one client cannot oversubscribe the pool
  // for everyone.
  const size_t lanes = std::max<size_t>(options_.num_threads, 1);
  mine.num_threads = request.params.count("threads") == 0
                         ? lanes
                         : std::clamp<size_t>(mine.num_threads, 1, lanes);
  const bool nocache = ParamOr(request, "nocache", "0") == "1";

  // A ranked (top-k) reply is a truncation and never cached. v1-manifest
  // entries carry no fingerprint; without a content hash there is no
  // sound cache key, so those requests always mine.
  const bool cacheable = !nocache && mining.top_k == 0;
  Fingerprint dataset_fp;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    Result<Catalog::DatasetInfo> info = catalog_->Info(name);
    if (!info.ok()) return FormatError(info.status());
    dataset_fp = info.value().fingerprint;
  }
  if (cacheable && !dataset_fp.IsZero()) {
    Schema schema;
    Result<FdSet> hit =
        cache_->Lookup(ResultCache::KeyFor(dataset_fp, algo, mining), &schema);
    if (hit.ok()) {
      // Cache hit: the cover comes back through the finished-job
      // checkpoint path — the relation is never loaded, no miner runs.
      metrics_->cache_hit.fetch_add(1, std::memory_order_relaxed);
      return FormatOk({{"fds", std::to_string(hit.value().size())},
                       {"cached", "1"},
                       {"complete", "1"}},
                      RenderCover(hit.value(), schema));
    }
  }
  metrics_->cache_miss.fetch_add(1, std::memory_order_relaxed);

  // The catalog lock is not held from the lookup to the load, so a PUT
  // may replace the dataset in between; the load reports the fingerprint
  // of what it actually returned, and the cover is filed under that.
  DEPMINER_FAULT_STALL("serve/stall");
  std::optional<Relation> relation;
  Fingerprint loaded_fp;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    Result<Relation> loaded = catalog_->Get(name, &loaded_fp);
    if (!loaded.ok()) return FormatError(loaded.status());
    relation.emplace(std::move(loaded).value());
  }

  RunContext ctx;
  parsed.value().Arm(&ctx);
  Result<MineOutcome> mined = MineByName(*relation, algo, mine);
  if (!mined.ok()) return FormatError(mined.status());
  const MineOutcome& outcome = mined.value();

  std::map<std::string, std::string> params = {
      {"fds", std::to_string(outcome.fds.size())},
      {"cached", "0"},
      {"complete", outcome.complete ? "1" : "0"}};
  if (!outcome.complete) {
    params["trip"] = StatusCodeToString(outcome.run_status.code());
  } else if (cacheable && !loaded_fp.IsZero()) {
    // Only complete, un-truncated covers are worth replaying; a partial
    // cover would poison every later request with silently-missing FDs.
    const Status stored =
        cache_->Store(ResultCache::KeyFor(loaded_fp, algo, mining),
                      relation->schema(), relation->num_tuples(), outcome.fds);
    if (!stored.ok()) {
      Log(LogLevel::kWarn, "server", "result-cache store failed",
          {LogStr("status", stored.ToString())});
    }
  }
  return FormatOk(params, RenderCover(outcome, relation->schema()));
}

std::string Server::DoProfile(const Request& request) {
  if (request.positional.size() != 1) {
    return FormatError(
        Status::InvalidArgument("usage: PROFILE <name> [format=json|md]"));
  }
  const std::string format = ParamOr(request, "format", "json");
  if (format != "json" && format != "md") {
    return FormatError(
        Status::InvalidArgument("format must be json or md"));
  }
  std::optional<Relation> relation;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    Result<Relation> loaded = catalog_->Get(request.positional[0]);
    if (!loaded.ok()) return FormatError(loaded.status());
    relation.emplace(std::move(loaded).value());
  }
  Result<RelationProfile> profile =
      ProfileRelation(*relation, request.positional[0]);
  if (!profile.ok()) return FormatError(profile.status());
  const std::string body = format == "json"
                               ? ProfileToJson(profile.value())
                               : ProfileToMarkdown(profile.value());
  return FormatOk({{"format", format}}, body);
}

std::string Server::DoStats() {
  return FormatOk({}, TelemetryJson(Snapshot()));
}

TelemetrySnapshot Server::Snapshot() const {
  TelemetrySnapshot snapshot;
  snapshot.wall_seconds =
      std::chrono::duration<double>(Clock::now() - metrics_->start).count();
  snapshot.counters["server/connections"] =
      metrics_->connections.load(std::memory_order_relaxed);
  snapshot.counters["server/requests"] =
      metrics_->requests.load(std::memory_order_relaxed);
  snapshot.counters["server/errors"] =
      metrics_->errors.load(std::memory_order_relaxed);
  snapshot.counters["server/rejected"] =
      metrics_->rejected.load(std::memory_order_relaxed);
  snapshot.counters["server/cache_hit"] =
      metrics_->cache_hit.load(std::memory_order_relaxed);
  snapshot.counters["server/cache_miss"] =
      metrics_->cache_miss.load(std::memory_order_relaxed);
  snapshot.gauges["server/inflight"] =
      inflight_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    for (const auto& [verb, hist] : metrics_->latency_by_verb) {
      snapshot.histograms["request_latency_ns/" + verb] = hist;
    }
  }
  return snapshot;
}

void Server::WriteMetricsIfConfigured() {
  if (options_.metrics_path.empty()) return;
  const Status written =
      WriteMetricsFile(Snapshot(), options_.metrics_path);
  if (!written.ok()) {
    Log(LogLevel::kWarn, "server", "metrics write failed",
        {LogStr("status", written.ToString())});
  }
}

}  // namespace depminer
