// The serve path: an in-process `Server` on a real Unix socket, driven by
// closed-loop `ServerClient`s. serve_hit repeats MINE of an unchanged
// dataset (every reply a cache hit); serve_churn PUTs the dataset with its
// rows rotated (new fingerprint, same cover) and MINEs it (every reply a
// miss). The traced pass keeps each real round trip as the parent span and
// replays the request's layer calls on a private catalog and cache.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "catalog/catalog.h"
#include "core/dep_miner.h"
#include "relation/csv.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using namespace depminer;

namespace {

const char kDataset[] = "bench";
const char kMineLine[] = "MINE bench threads=1";
const char kPutLine[] = "PUT bench";

/// The daemon, serving from its own thread until Stop().
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const std::string& catalog_dir, const std::string& socket) {
    ServerOptions options;
    options.catalog_dir = catalog_dir;
    options.socket_path = socket;
    options.num_threads = 1;  // one lane per request
    server_ = std::make_unique<Server>(options);
    DEPMINER_RETURN_NOT_OK(server_->Start());
    thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
    return Status::OK();
  }

  /// Graceful drain; returns the accept loop's verdict.
  Status Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
    return serve_status_;
  }

 private:
  std::unique_ptr<Server> server_;
  Status serve_status_;
  std::thread thread_;
};

/// The CSV text with its rows rotated left by k: same relation up to row
/// order, so the same cover under a new content fingerprint.
class RotatedCsv {
 public:
  explicit RotatedCsv(const std::string& csv) : csv_(csv) {
    size_t pos = csv.find('\n') + 1;
    while (pos < csv.size()) {
      row_start_.push_back(pos);
      pos = csv.find('\n', pos) + 1;
    }
  }

  size_t rows() const { return row_start_.size(); }

  std::string Body(size_t k) const {
    const size_t first = row_start_.front();
    const size_t pivot = row_start_[k % rows()];
    std::string body;
    body.reserve(csv_.size());
    body.append(csv_, 0, first);
    body.append(csv_, pivot, std::string::npos);
    body.append(csv_, first, pivot - first);
    return body;
  }

 private:
  const std::string& csv_;
  std::vector<size_t> row_start_;
};

/// Per-client failure bookkeeping, merged into the report after join.
struct ClientResult {
  ClientSamples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 4) problems.push_back(what);
  }
};

/// Checks one reply; returns an empty string when it is what the workload
/// must produce.
std::string CheckReply(const Result<Response>& reply, const char* cached,
                       const std::string& reference) {
  if (!reply.ok()) return "transport: " + reply.status().ToString();
  const Response& r = reply.value();
  if (!r.ok) return "ERR " + r.code + " " + r.message;
  if (cached == nullptr) return std::string();  // a PUT: OK is the check
  const auto it = r.params.find("cached");
  if (it == r.params.end() || it->second != cached) {
    return std::string("MINE reply without cached=") + cached;
  }
  if (r.body != reference) return "MINE body differs from the reference";
  return std::string();
}

/// One op's replies, checked after its timer stops.
struct OpReplies {
  std::optional<Result<Response>> put;
  std::optional<Result<Response>> mine;
};

std::string CheckOp(const OpReplies& op, bool hit,
                    const std::string& reference) {
  if (op.put.has_value()) {
    const std::string put = CheckReply(*op.put, nullptr, reference);
    if (!put.empty()) return "PUT: " + put;
  }
  return CheckReply(*op.mine, hit ? "1" : "0", reference);
}

/// Counters and request-latency sums of a STATS reply.
struct ServerStats {
  double mine_count = 0, mine_sum_ns = 0, put_count = 0, put_sum_ns = 0;
  double hits = 0, misses = 0, errors = 0, rejected = 0;
};

/// The number after `"key":` at or after `from` (0 when absent). STATS
/// bodies are the library's own compact JSON, so a scan suffices.
double JsonNumberAfter(const std::string& json, const std::string& key,
                       size_t from = 0) {
  const size_t at = json.find("\"" + key + "\"", from);
  if (at == std::string::npos) return 0;
  size_t pos = json.find(':', at) + 1;
  while (pos < json.size() && json[pos] == ' ') ++pos;
  return std::strtod(json.c_str() + pos, nullptr);
}

bool FetchStats(ServerClient* client, ServerStats* out) {
  Result<Response> reply = client->Call("STATS");
  if (!reply.ok() || !reply.value().ok) return false;
  const std::string& json = reply.value().body;
  auto histogram = [&](const char* verb, double* count, double* sum) {
    const size_t at = json.find(std::string("\"request_latency_ns/") + verb +
                                "\"");
    if (at == std::string::npos) return;
    *count = JsonNumberAfter(json, "count", at);
    *sum = JsonNumberAfter(json, "sum", at);
  };
  histogram("MINE", &out->mine_count, &out->mine_sum_ns);
  histogram("PUT", &out->put_count, &out->put_sum_ns);
  out->hits = JsonNumberAfter(json, "server/cache_hit");
  out->misses = JsonNumberAfter(json, "server/cache_miss");
  out->errors = JsonNumberAfter(json, "server/errors");
  out->rejected = JsonNumberAfter(json, "server/rejected");
  return true;
}

/// One frame transfer over a socketpair, timed by the sender: sends a
/// payload and returns once a reader thread has received all of it (a
/// PUT frame exceeds any socket buffer, so a reader must drain it).
class FrameProbe {
 public:
  FrameProbe() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      fds_[0] = fds_[1] = -1;
      return;
    }
    reader_ = std::thread([this] { ReadLoop(); });
  }
  ~FrameProbe() {
    if (fds_[0] >= 0) ::shutdown(fds_[0], SHUT_WR);
    if (reader_.joinable()) reader_.join();
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  FrameProbe(const FrameProbe&) = delete;
  FrameProbe& operator=(const FrameProbe&) = delete;

  bool Transfer(const std::string& payload) {
    if (fds_[0] < 0) return false;
    uint64_t target = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      target = received_ + 1;
    }
    if (!SendFrame(fds_[0], payload).ok()) return false;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return received_ >= target || closed_; });
    return received_ >= target;
  }

 private:
  void ReadLoop() {
    std::string payload;
    for (;;) {
      Result<bool> got = RecvFrame(fds_[1], &payload);
      std::lock_guard<std::mutex> lock(mu_);
      if (!got.ok() || !got.value()) {
        closed_ = true;
        cv_.notify_all();
        return;
      }
      ++received_;
      cv_.notify_all();
    }
  }

  int fds_[2] = {-1, -1};
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t received_ = 0;  // guarded by mu_
  bool closed_ = false;    // guarded by mu_
  std::thread reader_;
};

/// The private catalog and cache the traced pass replays requests on.
struct ReplayEnv {
  std::optional<Catalog> catalog;
  std::optional<ResultCache> cache;
  std::string catalog_dir;
};

/// Span names of the server-side replayed layers; the rest of a replay
/// (frame transfers, response parsing) is transport and client work.
bool ServerSide(const std::string& span) {
  return span != "op" && span != "client.put" && span != "client.mine" &&
         span != "protocol.frames" && span != "protocol.parse_response";
}

std::string FormatReplyOk(size_t fds, const char* cached,
                          const std::string& body) {
  return FormatOk({{"fds", std::to_string(fds)},
                   {"cached", cached},
                   {"complete", "1"}},
                  body);
}

/// Replays one serve_hit request (MINE → cache hit). Returns an error
/// text, empty on success.
std::string ReplayHit(ReplayEnv* env, FrameProbe* probe, SpanRecorder* rec,
                      uint32_t op, int32_t parent, const std::string& ref,
                      Metrics* m) {
  const std::string payload = kMineLine;
  Result<Request> request = InSpan(rec, "protocol.parse_request", op, parent,
                                   [&] { return ParseRequest(payload); });
  if (!request.ok()) return "replay: " + request.status().ToString();
  Schema schema;
  Fingerprint key;
  Result<FdSet> hit =
      InSpan(rec, "cache.lookup", op, parent, [&]() -> Result<FdSet> {
        Result<Catalog::DatasetInfo> info = env->catalog->Info(kDataset);
        if (!info.ok()) return info.status();
        key = ResultCache::KeyFor(info.value().fingerprint, "depminer",
                                  MiningOptions());
        return env->cache->Lookup(key, &schema);
      });
  if (!hit.ok()) return "replay: cache miss on a hit workload";
  const std::string body = InSpan(rec, "render", op, parent, [&] {
    return RenderCover(hit.value(), schema);
  });
  const std::string reply = InSpan(rec, "protocol.format", op, parent, [&] {
    return FormatReplyOk(hit.value().size(), "1", body);
  });
  const bool sent = InSpan(rec, "protocol.frames", op, parent, [&] {
    return probe->Transfer(payload) && probe->Transfer(reply);
  });
  if (!sent) return "replay: frame transfer failed";
  Result<Response> parsed =
      InSpan(rec, "protocol.parse_response", op, parent,
             [&] { return ParseResponse(reply); });
  if (!parsed.ok() || parsed.value().body != ref) {
    return "replay: cover differs from the reference";
  }
  (*m)["render.kb"].value = body.size() / 1e3;
  (*m)["protocol.kb"].value = (payload.size() + reply.size()) / 1e3;
  (*m)["cache.entry_kb"].value =
      std::filesystem::file_size(env->cache->PathFor(key)) / 1e3;
  return std::string();
}

/// Replays one serve_churn op: PUT of the rotated body, then MINE (miss).
std::string ReplayChurn(ReplayEnv* env, FrameProbe* probe, SpanRecorder* rec,
                        uint32_t op, int32_t parent,
                        const std::string& put_payload,
                        const std::string& ref, Metrics* m) {
  Result<Request> put = InSpan(rec, "protocol.parse_request", op, parent,
                               [&] { return ParseRequest(put_payload); });
  if (!put.ok()) return "replay: " + put.status().ToString();
  Result<Relation> relation = InSpan(rec, "relation", op, parent, [&] {
    return ParseCsvRelation(put.value().body);
  });
  if (!relation.ok()) return "replay: " + relation.status().ToString();
  Result<Catalog::DatasetInfo> info = InSpan(
      rec, "catalog.put", op, parent, [&]() -> Result<Catalog::DatasetInfo> {
        const Status stored = env->catalog->Put(kDataset, relation.value());
        if (!stored.ok()) return stored;
        return env->catalog->Info(kDataset);
      });
  if (!info.ok()) return "replay: " + info.status().ToString();
  const std::string put_reply = InSpan(rec, "protocol.format", op, parent, [&] {
    return FormatOk({{"attributes", std::to_string(info.value().attributes)},
                     {"tuples", std::to_string(info.value().tuples)},
                     {"fingerprint", info.value().fingerprint.ToHex()}},
                    "");
  });

  const std::string mine_payload = kMineLine;
  Result<Request> mine = InSpan(rec, "protocol.parse_request", op, parent,
                                [&] { return ParseRequest(mine_payload); });
  if (!mine.ok()) return "replay: " + mine.status().ToString();
  Fingerprint key;
  const bool missed = InSpan(rec, "cache.lookup", op, parent, [&] {
    key = ResultCache::KeyFor(info.value().fingerprint, "depminer",
                              MiningOptions());
    Schema unused;
    return !env->cache->Lookup(key, &unused).ok();
  });
  if (!missed) return "replay: cache hit on a churn workload";
  Result<Relation> loaded = InSpan(rec, "catalog.get", op, parent,
                                   [&] { return env->catalog->Get(kDataset); });
  if (!loaded.ok()) return "replay: " + loaded.status().ToString();
  const Schema& schema = loaded.value().schema();
  const FdSet fds = TracedMineLayers(loaded.value(), rec, op, parent, m);
  const Status stored = InSpan(rec, "cache.store", op, parent, [&] {
    return env->cache->Store(key, schema, loaded.value().num_tuples(), fds);
  });
  if (!stored.ok()) return "replay: " + stored.ToString();
  const std::string body = InSpan(rec, "render", op, parent,
                                  [&] { return RenderCover(fds, schema); });
  const std::string reply = InSpan(rec, "protocol.format", op, parent, [&] {
    return FormatReplyOk(fds.size(), "0", body);
  });
  const bool sent = InSpan(rec, "protocol.frames", op, parent, [&] {
    return probe->Transfer(put_payload) && probe->Transfer(put_reply) &&
           probe->Transfer(mine_payload) && probe->Transfer(reply);
  });
  if (!sent) return "replay: frame transfer failed";
  const bool same = InSpan(rec, "protocol.parse_response", op, parent, [&] {
    Result<Response> put_parsed = ParseResponse(put_reply);
    Result<Response> parsed = ParseResponse(reply);
    return put_parsed.ok() && parsed.ok() && parsed.value().body == ref;
  });
  if (!same) return "replay: cover differs from the reference";
  (*m)["render.kb"].value = body.size() / 1e3;
  (*m)["protocol.kb"].value = (put_payload.size() + put_reply.size() +
                               mine_payload.size() + reply.size()) /
                              1e3;
  (*m)["cache.entry_kb"].value =
      std::filesystem::file_size(env->cache->PathFor(key)) / 1e3;
  return std::string();
}

/// Bytes the catalog stores per CSV byte: column files plus manifest,
/// without the result cache.
double CatalogBytesPerCsvByte(const std::string& catalog_dir,
                              size_t csv_bytes) {
  uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(catalog_dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / static_cast<double>(csv_bytes);
}

/// One client's traced-pass state: its span buffer, its share of the
/// private replay environment, and the layer counts its replays record.
struct TraceCtx {
  ReplayEnv* env;
  SpanRecorder* recorder;
  Metrics counts;
};

/// A serve workload's run: the daemon, its clients and the closed loops
/// that drive them.
class ServeRun {
 public:
  ServeRun(const Args& args, const Inputs& inputs, const std::string& run_dir,
           RunReport* report)
      : args_(args),
        inputs_(inputs),
        run_dir_(run_dir),
        report_(report),
        hit_(args.workload == "serve_hit"),
        num_clients_(hit_ ? 2 : 1),
        rotated_(inputs.csv) {}

  void Run();

 private:
  bool SetUp(int rep, double* ms);
  void TearDown();
  OpReplies RunOp(size_t client, const std::string* put_body);
  void ClientLoop(size_t c, Clock::time_point deadline,
                  std::atomic<size_t>* rotation, TraceCtx* traced,
                  ClientResult* out);
  std::vector<ClientSamples> RunWindow(double seconds,
                                       std::vector<TraceCtx>* traced);
  void TracedPass(const Metrics& e2e);

  const Args& args_;
  const Inputs& inputs_;
  const std::string& run_dir_;
  RunReport* report_;
  const bool hit_;
  const size_t num_clients_;
  const RotatedCsv rotated_;
  // Rotation 0 is the set-up PUT's content; each churn op takes the next
  // one, so no op repeats a fingerprint the cache already holds.
  size_t next_rotation_ = 1;
  std::unique_ptr<Daemon> daemon_;
  std::vector<ServerClient> clients_;  // destroyed before daemon_ stops
};

/// Set-up: a fresh daemon on a fresh catalog, its clients connected, the
/// PUT, the first MINE (fills the result cache) and warm-up ops. `*ms` is
/// its time; the checks of its replies run after the timer stops. False
/// when the daemon cannot be started or reached.
bool ServeRun::SetUp(int rep, double* ms) {
  TearDown();
  const std::string dir = run_dir_ + "/serve" + std::to_string(rep);
  const std::string socket = dir + "/d.sock";
  std::filesystem::create_directories(dir + "/catalog");
  const Clock::time_point start = Clock::now();
  daemon_ = std::make_unique<Daemon>();
  const Status started = daemon_->Start(dir + "/catalog", socket);
  if (!started.ok()) {
    report_->Fail("daemon start: " + started.ToString());
    return false;
  }
  for (size_t c = 0; c < num_clients_; ++c) {
    Result<ServerClient> client = ServerClient::Connect(socket);
    if (!client.ok()) {
      report_->Fail("connect: " + client.status().ToString());
      return false;
    }
    clients_.push_back(std::move(client).value());
  }
  const OpReplies first = RunOp(0, &inputs_.csv);
  std::vector<OpReplies> warmups;
  for (size_t c = 0; c < num_clients_; ++c) {
    for (size_t i = 0; i < (hit_ ? (args_.smoke ? 3 : 20) : 1); ++i) {
      const std::string body =
          hit_ ? std::string() : rotated_.Body(next_rotation_++);
      warmups.push_back(RunOp(c, hit_ ? nullptr : &body));
    }
  }
  *ms = MsSince(start);
  std::string problem = CheckOp(first, false, inputs_.reference);
  for (const OpReplies& op : warmups) {
    if (problem.empty()) problem = CheckOp(op, hit_, inputs_.reference);
  }
  if (!problem.empty()) {
    report_->correct = false;
    report_->Fail("set-up: " + problem);
  }
  return true;
}

void ServeRun::TearDown() {
  clients_.clear();
  if (daemon_ != nullptr) {
    const Status drained = daemon_->Stop();
    if (!drained.ok()) report_->Fail("drain: " + drained.ToString());
    daemon_.reset();
  }
}

// The request bodies are built before the op's timer starts.
OpReplies ServeRun::RunOp(size_t client, const std::string* put_body) {
  OpReplies replies;
  if (put_body != nullptr) {
    replies.put = clients_[client].Call(kPutLine, *put_body);
  }
  replies.mine = clients_[client].Call(kMineLine);
  return replies;
}

/// One client's closed loop until `deadline`; `traced` adds the span of
/// each round trip and the replay of its layers.
void ServeRun::ClientLoop(size_t c, Clock::time_point deadline,
                          std::atomic<size_t>* rotation, TraceCtx* traced,
                          ClientResult* out) {
  std::optional<FrameProbe> probe;
  if (traced != nullptr) probe.emplace();
  uint32_t i = 0;
  do {
    std::string body;
    if (!hit_) {
      const size_t k = rotation->fetch_add(1);
      // A rotation seen before would be a legitimate cache hit.
      if (k >= rotated_.rows()) break;
      body = rotated_.Body(k);
    }
    const uint32_t op = static_cast<uint32_t>(c << 24) | i++;
    int32_t root = -1;
    const Clock::time_point start = Clock::now();
    OpReplies replies;
    if (traced == nullptr) {
      replies = RunOp(c, hit_ ? nullptr : &body);
    } else {
      SpanRecorder* rec = traced->recorder;
      root = rec->Begin("op", op);
      if (!hit_) {
        replies.put = InSpan(rec, "client.put", op, root,
                             [&] { return clients_[c].Call(kPutLine, body); });
      }
      replies.mine = InSpan(rec, "client.mine", op, root,
                            [&] { return clients_[c].Call(kMineLine); });
      rec->End(root);
    }
    const double ms = MsSince(start);
    out->samples.op_ms.push_back(ms);
    out->samples.busy_ms += ms;
    ++out->attempted;
    std::string problem = CheckOp(replies, hit_, inputs_.reference);
    if (problem.empty() && traced != nullptr) {
      problem = hit_ ? ReplayHit(traced->env, &*probe, traced->recorder, op,
                                 root, inputs_.reference, &traced->counts)
                     : ReplayChurn(traced->env, &*probe, traced->recorder,
                                   op, root,
                                   std::string(kPutLine) + "\n" + body,
                                   inputs_.reference, &traced->counts);
    }
    if (!problem.empty()) out->Fail(problem);
  } while (Clock::now() < deadline);
}

std::vector<ClientSamples> ServeRun::RunWindow(double seconds,
                                               std::vector<TraceCtx>* traced) {
  std::vector<ClientResult> results(num_clients_);
  std::atomic<size_t> rotation{next_rotation_};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_clients_; ++c) {
    threads.emplace_back(&ServeRun::ClientLoop, this, c, deadline, &rotation,
                         traced != nullptr ? &(*traced)[c] : nullptr,
                         &results[c]);
  }
  for (std::thread& t : threads) t.join();
  next_rotation_ = rotation.load();
  std::vector<ClientSamples> samples;
  for (ClientResult& r : results) {
    report_->attempted += r.attempted;
    report_->failed += r.failed;
    for (const std::string& p : r.problems) report_->Fail(p);
    samples.push_back(std::move(r.samples));
  }
  return samples;
}

void ServeRun::Run() {
  // setup_s is the median of several set-ups. The first serves the timed
  // window; the others run after it, so the window's memory does not
  // carry what their mines leave in other pool workers' heaps.
  std::vector<double> setup_ms(1);
  report_->facts["peak_rss_reset"] = ResetPeakRss();
  if (!SetUp(0, &setup_ms[0])) {
    TearDown();
    return;
  }
  const std::vector<ClientSamples> untraced =
      RunWindow(args_.trace ? args_.seconds / 2 : args_.seconds, nullptr);
  Metrics e2e;
  AddLatencyMetrics(untraced, &e2e);
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  size_t ops = 0;
  for (const ClientSamples& s : untraced) ops += s.op_ms.size();
  report_->facts["ops"] = static_cast<double>(ops);
  report_->facts["clients"] = static_cast<double>(num_clients_);
  if (args_.trace) TracedPass(e2e);
  TearDown();
  for (int rep = 1; rep < (args_.smoke ? 1 : 3); ++rep) {
    setup_ms.push_back(0);
    if (!SetUp(rep, &setup_ms.back())) report_->correct = false;
    TearDown();
  }
  e2e["setup_s"] = {Percentile(setup_ms, 0.5) / 1000, "s"};
  CrossCheckReference(inputs_, report_);
  if (!args_.trace) {
    report_->metrics = e2e;
  } else {
    for (const auto& [name, metric] : e2e) {
      report_->facts["untraced." + name] = metric.value;
    }
  }
}

/// The traced pass, on the window's daemon. The replay's private catalog
/// holds the same dataset; for serve_hit its cache holds the cover too.
void ServeRun::TracedPass(const Metrics& e2e) {
  Metrics& m = report_->metrics;
  m = ZeroLayerMetrics();
  ReplayEnv env;
  env.catalog_dir = run_dir_ + "/replay/catalog";
  std::filesystem::create_directories(env.catalog_dir + "/cache");
  Result<Catalog> catalog = Catalog::Open(env.catalog_dir);
  if (!catalog.ok() ||
      !catalog.value().Put(kDataset, inputs_.relation).ok()) {
    report_->correct = false;
    report_->Fail("replay catalog set-up failed");
    return;
  }
  env.catalog.emplace(std::move(catalog).value());
  env.cache.emplace(env.catalog_dir + "/cache");
  if (hit_) {
    DepMinerOptions options;
    options.build_armstrong = false;
    Result<DepMinerResult> mined = MineDependencies(inputs_.relation, options);
    const Fingerprint key = ResultCache::KeyFor(
        env.catalog->Info(kDataset).value().fingerprint, "depminer",
        MiningOptions());
    if (!mined.ok() ||
        !env.cache
             ->Store(key, inputs_.relation.schema(),
                     inputs_.relation.num_tuples(), mined.value().fds)
             .ok()) {
      report_->correct = false;
      report_->Fail("replay cache set-up failed");
      return;
    }
  }

  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  std::vector<TraceCtx> contexts;
  for (size_t c = 0; c < num_clients_; ++c) {
    recorders.push_back(std::make_unique<SpanRecorder>(static_cast<int>(c)));
    contexts.push_back({&env, recorders.back().get(), ZeroLayerMetrics()});
  }
  ServerStats before, after;
  const bool stats_ok = FetchStats(&clients_[0], &before);
  RunWindow(args_.seconds / 2, &contexts);
  if (!stats_ok || !FetchStats(&clients_[0], &after)) {
    report_->correct = false;
    report_->Fail("STATS request failed");
  }

  // Counts are identical across ops and clients; take client 0's.
  for (const auto& [name, metric] : contexts[0].counts) {
    if (metric.value != 0) m[name].value = metric.value;
  }
  std::vector<const SpanRecorder*> views;
  for (const auto& r : recorders) views.push_back(r.get());
  const SelfTimes self = SelfTimeByOp(views);
  std::vector<uint32_t> op_ids;
  std::vector<double> op_ms;
  double client_ms = 0;
  for (const SpanRecorder* r : views) {
    for (const Span& s : r->spans()) {
      if (s.parent >= 0) continue;
      op_ids.push_back(s.op);
      op_ms.push_back(SpanMs(s));
      client_ms += SpanMs(s);
    }
  }
  AddLayerMetrics(self, op_ids, &m);
  double replayed_server_ms = 0;
  for (const auto& [span, by_op] : self) {
    if (!ServerSide(span)) continue;
    for (const auto& [op, ms] : by_op) replayed_server_ms += ms;
  }
  const double n = static_cast<double>(op_ids.size());
  const double mines = after.mine_count - before.mine_count;
  const double puts = after.put_count - before.put_count;
  const double mine_ms = (after.mine_sum_ns - before.mine_sum_ns) / 1e6;
  const double put_ms = (after.put_sum_ns - before.put_sum_ns) / 1e6;
  const double hits = after.hits - before.hits;
  const double lookups = hits + after.misses - before.misses;
  m["server.mine_ms"].value = mines > 0 ? mine_ms / mines : 0;
  m["server.put_ms"].value = puts > 0 ? put_ms / puts : 0;
  // Client-observed time the daemon did not spend dispatching requests:
  // socket copies, framing and wake-ups.
  m["server.transport_ms"].value =
      n > 0 ? (client_ms - mine_ms - put_ms) / n : 0;
  m["server.cache_hit_pct"].value = lookups > 0 ? 100.0 * hits / lookups : 0;
  m["server.errors"].value = after.errors - before.errors;
  m["server.rejected"].value = after.rejected - before.rejected;
  m["trace.layer_sum_pct"].value =
      mine_ms + put_ms > 0 ? 100.0 * replayed_server_ms / (mine_ms + put_ms)
                           : 0;
  const double base = e2e.at("op_ms.p50").value;
  m["trace.overhead_pct"].value =
      100.0 * (Percentile(op_ms, 0.5) - base) / base;
  const double relation_ms = m["relation.ms"].value;
  if (relation_ms > 0) {
    m["relation.mb_per_s"].value = inputs_.csv.size() / 1e3 / relation_ms;
  }
  m["catalog.bytes_per_csv_byte"].value =
      CatalogBytesPerCsvByte(env.catalog_dir, inputs_.csv.size());
  if (mines != n) {
    report_->correct = false;
    report_->Fail("STATS counted " + std::to_string(mines) + " MINEs for " +
                  std::to_string(op_ids.size()) + " traced ops");
  }
  WriteTraceFile(views, args_, report_);
}

}  // namespace

void RunServe(const Args& args, const Inputs& inputs,
              const std::string& run_dir, RunReport* report) {
  ServeRun(args, inputs, run_dir, report).Run();
}

}  // namespace perfbench
