#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "catalog/catalog.h"
#include "common/strings.h"
#include "core/dep_miner.h"
#include "core/mine_by_name.h"
#include "datagen/synthetic.h"
#include "fault/fault.h"
#include "relation/csv.h"
#include "server/client.h"
#include "server/protocol.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::RandomRelation;

/// The cover exactly as the daemon (and `fdtool mine`) renders it — the
/// yardstick for the bit-identical acceptance check.
std::string ExpectedCover(const Relation& relation) {
  DepMinerOptions options;
  options.build_armstrong = false;
  Result<DepMinerResult> mined = MineDependencies(relation, options);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  std::string body;
  for (const FunctionalDependency& fd : mined.value().fds.fds()) {
    body += fd.ToString(relation.schema());
    body += '\n';
  }
  return body;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/dm_srv_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    socket_ = dir_ + "/sock";
  }

  void TearDown() override {
    if (thread_.joinable()) StopServer();
    std::filesystem::remove_all(dir_);
  }

  void StartServer(size_t max_connections = 32, size_t num_threads = 4) {
    stop_.store(false);
    ServerOptions options;
    options.catalog_dir = dir_;
    options.socket_path = socket_;
    options.max_connections = max_connections;
    options.num_threads = num_threads;
    options.shutdown_flag = &stop_;
    server_.reset(new Server(options));
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  void StopServer() {
    stop_.store(true);
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  ServerClient Connect() {
    Result<ServerClient> client = ServerClient::Connect(socket_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// PUTs `relation` under `name` and returns the CSV the server parsed.
  std::string PutRelation(ServerClient& client, const std::string& name,
                          const Relation& relation) {
    const std::string csv = CsvToString(relation);
    Result<Response> put = client.Call("put " + name, csv);
    EXPECT_TRUE(put.ok()) << put.status().ToString();
    EXPECT_TRUE(put.value().ok) << put.value().message;
    return csv;
  }

  std::string dir_;
  std::string socket_;
  std::atomic<bool> stop_{false};
  std::unique_ptr<Server> server_;
  std::thread thread_;
  Status serve_status_;
};

TEST_F(ServerTest, PingPutInfoListDropRoundTrip) {
  StartServer();
  ServerClient client = Connect();

  Result<Response> ping = client.Call("ping");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping.value().ok);

  Result<Response> list = client.Call("list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().params.at("count"), "0");
  EXPECT_TRUE(list.value().body.empty());

  const Relation relation = RandomRelation(4, 25, 3, 7);
  PutRelation(client, "ds", relation);

  Result<Response> info = client.Call("info ds");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().ok) << info.value().message;
  EXPECT_EQ(info.value().params.at("attributes"),
            std::to_string(relation.num_attributes()));
  EXPECT_EQ(info.value().params.at("tuples"),
            std::to_string(relation.num_tuples()));
  EXPECT_EQ(info.value().params.at("fingerprint").size(), 32u);

  list = client.Call("list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().params.at("count"), "1");
  EXPECT_EQ(list.value().body, "ds\n");

  Result<Response> missing = client.Call("info nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().ok);
  EXPECT_EQ(missing.value().code, "NotFound");

  Result<Response> drop = client.Call("drop ds");
  ASSERT_TRUE(drop.ok());
  EXPECT_TRUE(drop.value().ok);
  drop = client.Call("drop ds");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(drop.value().code, "NotFound");
}

TEST_F(ServerTest, MineIsBitIdenticalAcrossThreadCounts) {
  StartServer(/*max_connections=*/32, /*num_threads=*/8);
  ServerClient client = Connect();
  const Relation relation = RandomRelation(5, 14, 3, 42);
  const std::string csv = PutRelation(client, "ds", relation);

  // The yardstick mines the same bytes the server parsed.
  Result<Relation> parsed = ParseCsvRelation(csv);
  ASSERT_TRUE(parsed.ok());
  const std::string expected = ExpectedCover(parsed.value());
  ASSERT_FALSE(expected.empty());

  for (const int threads : {1, 2, 8}) {
    Result<Response> mine = client.Call(
        "mine ds nocache=1 threads=" + std::to_string(threads));
    ASSERT_TRUE(mine.ok()) << mine.status().ToString();
    ASSERT_TRUE(mine.value().ok) << mine.value().message;
    EXPECT_EQ(mine.value().params.at("complete"), "1");
    EXPECT_EQ(mine.value().params.at("cached"), "0");
    EXPECT_EQ(mine.value().body, expected) << "threads=" << threads;
  }
}

TEST_F(ServerTest, RepeatMineIsServedFromTheResultCache) {
  StartServer();
  ServerClient client = Connect();
  const Relation relation = RandomRelation(5, 14, 3, 11);
  PutRelation(client, "ds", relation);

  Result<Response> first = client.Call("mine ds");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().ok) << first.value().message;
  EXPECT_EQ(first.value().params.at("cached"), "0");

  Result<Response> second = client.Call("mine ds");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().ok) << second.value().message;
  EXPECT_EQ(second.value().params.at("cached"), "1");
  EXPECT_EQ(second.value().body, first.value().body);
  EXPECT_EQ(second.value().params.at("fds"), first.value().params.at("fds"));

  const TelemetrySnapshot snapshot = server_->Snapshot();
  EXPECT_GE(snapshot.counters.at("server/cache_hit"), 1u);
  EXPECT_GE(snapshot.counters.at("server/cache_miss"), 1u);

  // nocache bypasses the cache but must still produce the same cover.
  Result<Response> forced = client.Call("mine ds nocache=1");
  ASSERT_TRUE(forced.ok());
  ASSERT_TRUE(forced.value().ok);
  EXPECT_EQ(forced.value().params.at("cached"), "0");
  EXPECT_EQ(forced.value().body, first.value().body);

  // Re-putting the same name with different content changes the
  // fingerprint, so the stale cover is not replayed.
  const Relation changed = RandomRelation(5, 14, 3, 12);
  PutRelation(client, "ds", changed);
  Result<Response> after = client.Call("mine ds");
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.value().ok);
  EXPECT_EQ(after.value().params.at("cached"), "0");
}

TEST_F(ServerTest, ResultCacheSurvivesServerRestart) {
  StartServer();
  std::string first_body;
  {
    ServerClient client = Connect();
    PutRelation(client, "ds", RandomRelation(5, 14, 3, 21));
    Result<Response> first = client.Call("mine ds");
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value().ok);
    EXPECT_EQ(first.value().params.at("cached"), "0");
    first_body = first.value().body;
  }
  StopServer();
  server_.reset();

  // A fresh daemon over the same catalog serves the cover straight from
  // the on-disk cache: the fingerprint key is content-derived, not
  // session state.
  StartServer();
  ServerClient client = Connect();
  Result<Response> again = client.Call("mine ds");
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value().ok) << again.value().message;
  EXPECT_EQ(again.value().params.at("cached"), "1");
  EXPECT_EQ(again.value().body, first_body);
}

/// Overwrites the 8 bytes at `offset` of file `path` with `v`,
/// little-endian.
void DoctorU64(const std::string& path, size_t offset, uint64_t v) {
  std::string bytes = testing::ReadFileBytes(path);
  ASSERT_LE(offset + 8, bytes.size()) << path;
  testing::PutLe(&bytes, offset, v, 8);
  testing::WriteFileBytes(path, bytes);
}

TEST_F(ServerTest, DoctoredCacheEntryMissesAndHeals) {
  StartServer();
  ServerClient client = Connect();
  PutRelation(client, "ds", RandomRelation(5, 14, 3, 23));
  Result<Response> first = client.Call("mine ds");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().ok) << first.value().message;
  EXPECT_EQ(first.value().params.at("cached"), "0");

  // The one cover entry: its FD count sits before the FDs (20 bytes
  // each) and the 4-byte end marker. Claim 2^32 FDs, inside the reader's
  // cap but far beyond the file.
  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir_ + "/cache")) {
    entries.push_back(e.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  const uint64_t fds = std::stoull(first.value().params.at("fds"));
  const size_t size = std::filesystem::file_size(entries[0]);
  DoctorU64(entries[0], size - 4 - 20 * fds - 8, uint64_t{1} << 32);

  // A bad entry is a miss that re-mines and heals.
  Result<Response> healed = client.Call("mine ds");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ASSERT_TRUE(healed.value().ok) << healed.value().message;
  EXPECT_EQ(healed.value().params.at("cached"), "0");
  EXPECT_EQ(healed.value().body, first.value().body);
  Result<Response> hit = client.Call("mine ds");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_TRUE(hit.value().ok) << hit.value().message;
  EXPECT_EQ(hit.value().params.at("cached"), "1");
  EXPECT_EQ(hit.value().body, first.value().body);
}

TEST_F(ServerTest, DoctoredColumnFileAnswersErrAndKeepsServing) {
  StartServer();
  ServerClient client = Connect();
  PutRelation(client, "ds", RandomRelation(4, 30, 3, 8));
  const std::string csv =
      PutRelation(client, "other", RandomRelation(4, 30, 3, 9));
  // The tuple count follows the magic and the attribute count: claim
  // 2^60 tuples.
  DoctorU64(dir_ + "/ds.g1.dmc", 8, uint64_t{1} << 60);

  Result<Response> bad = client.Call("mine ds");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad.value().ok);
  EXPECT_EQ(bad.value().code, "IoError");

  // The daemon is still up, on this connection and on a new one.
  Result<Response> ping = client.Call("ping");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping.value().ok);
  ServerClient fresh = Connect();
  Result<Response> mined = fresh.Call("mine other");
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_TRUE(mined.value().ok) << mined.value().message;
  Result<Relation> parsed = ParseCsvRelation(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(mined.value().body, ExpectedCover(parsed.value()));
}

TEST_F(ServerTest, MineRacingAPutCachesWhatItLoaded) {
#if !DEPMINER_FAULTS_ENABLED
  GTEST_SKIP() << "needs the serve/stall fault site";
#else
  StartServer();
  ServerClient miner = Connect();
  ServerClient writer = Connect();
  const std::string csv_a =
      PutRelation(writer, "ds", RandomRelation(5, 14, 3, 101));
  const std::string csv_b = CsvToString(RandomRelation(5, 14, 3, 202));
  Result<Relation> a = ParseCsvRelation(csv_a);
  Result<Relation> b = ParseCsvRelation(csv_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string cover_a = ExpectedCover(a.value());
  const std::string cover_b = ExpectedCover(b.value());
  ASSERT_NE(cover_a, cover_b);

  // MINE looks up A's key and misses, then stalls before the load; B
  // replaces A inside the stall, so the MINE loads and mines B.
  std::optional<Result<Response>> raced;
  {
    FaultPlan plan;
    plan.site = "serve/stall";
    plan.stall_ms = 1500;
    FaultScope scope(plan);
    std::thread mine([&] { raced.emplace(miner.Call("mine ds")); });
    for (int waited = 0; scope.hits() == 0 && waited < 10000; ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Result<Response> put = writer.Call("put ds", csv_b);
    mine.join();
    ASSERT_TRUE(put.ok()) << put.status().ToString();
    ASSERT_TRUE(put.value().ok) << put.value().message;
  }
  ASSERT_TRUE(raced->ok()) << raced->status().ToString();
  ASSERT_TRUE(raced->value().ok) << raced->value().message;
  EXPECT_EQ(raced->value().body, cover_b);

  // B's cover was filed under B's fingerprint, so A's content mines
  // afresh to A's own cover, and only then hits.
  Result<Response> put_a = writer.Call("put ds", csv_a);
  ASSERT_TRUE(put_a.ok()) << put_a.status().ToString();
  ASSERT_TRUE(put_a.value().ok) << put_a.value().message;
  for (const char* cached : {"0", "1"}) {
    Result<Response> again = writer.Call("mine ds");
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_TRUE(again.value().ok) << again.value().message;
    EXPECT_EQ(again.value().params.at("cached"), cached);
    EXPECT_EQ(again.value().body, cover_a);
  }
#endif
}

TEST_F(ServerTest, EightConcurrentClientsMineBitIdenticalCovers) {
  StartServer(/*max_connections=*/32, /*num_threads=*/8);
  const Relation relation = RandomRelation(5, 14, 3, 99);
  std::string csv;
  {
    ServerClient client = Connect();
    csv = PutRelation(client, "ds", relation);
  }
  Result<Relation> parsed = ParseCsvRelation(csv);
  ASSERT_TRUE(parsed.ok());
  const std::string expected = ExpectedCover(parsed.value());

  constexpr int kClients = 8;
  std::vector<std::string> bodies(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &bodies, &failures] {
      Result<ServerClient> client = ServerClient::Connect(socket_);
      if (!client.ok()) {
        failures[i] = client.status().ToString();
        return;
      }
      // Odd clients bypass the cache (a real mine per request), even
      // clients race it; every reply must carry the same cover.
      const std::string command =
          i % 2 == 1 ? "mine ds nocache=1 threads=" + std::to_string(1 + i % 4)
                     : "mine ds";
      Result<Response> mine = client.value().Call(command);
      if (!mine.ok()) {
        failures[i] = mine.status().ToString();
        return;
      }
      if (!mine.value().ok) {
        failures[i] = mine.value().code + ": " + mine.value().message;
        return;
      }
      bodies[i] = mine.value().body;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(failures[i].empty()) << "client " << i << ": " << failures[i];
    EXPECT_EQ(bodies[i], expected) << "client " << i;
  }
  const TelemetrySnapshot snapshot = server_->Snapshot();
  EXPECT_GE(snapshot.counters.at("server/connections"),
            static_cast<uint64_t>(kClients));
}

TEST_F(ServerTest, AdmissionControlRejectsBeyondCapacity) {
  StartServer(/*max_connections=*/1);
  ServerClient first = Connect();
  Result<Response> ping = first.Call("ping");
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(ping.value().ok);

  // The daemon holds one connection; the next one is answered with a
  // framed rejection and closed, not silently queued.
  {
    ServerClient second = Connect();
    Result<Response> rejected = second.Call("ping");
    ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
    EXPECT_FALSE(rejected.value().ok);
    EXPECT_EQ(rejected.value().code, "ResourceExhausted");
  }
  const TelemetrySnapshot snapshot = server_->Snapshot();
  EXPECT_GE(snapshot.counters.at("server/rejected"), 1u);

  // Releasing the held connection frees the slot (the handler notices
  // the EOF within its poll tick).
  { ServerClient closing = std::move(first); }
  bool reconnected = false;
  for (int attempt = 0; attempt < 100 && !reconnected; ++attempt) {
    Result<ServerClient> retry = ServerClient::Connect(socket_);
    if (retry.ok()) {
      Result<Response> again = retry.value().Call("ping");
      reconnected = again.ok() && again.value().ok;
    }
    if (!reconnected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(reconnected);
}

TEST_F(ServerTest, MineValidatesItsParameters) {
  StartServer();
  ServerClient client = Connect();
  PutRelation(client, "ds", RandomRelation(4, 20, 3, 5));

  Result<Response> r = client.Call("mine nope");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().code, "NotFound");

  // The rules and texts `fdtool` applies to its flags, each key named in
  // its wire spelling. The parse precedes any catalog access, so an
  // unknown dataset answers the same.
  const std::pair<const char*, const char*> kRejected[] = {
      {"algo=bogus",
       "unknown algo \"bogus\" (depminer|depminer2|tane|fastfds|fdep)"},
      {"arity=0", "arity must be a positive integer, got \"0\""},
      {"topk=0", "topk must be a positive integer, got \"0\""},
      {"arity=abc", "arity must be a positive integer, got \"abc\""},
      {"threads=abc", "threads must be a non-negative integer, got \"abc\""},
      {"timeout_ms=-5",
       "timeout_ms must be a non-negative integer, got \"-5\""},
      {"timeout_ms=99999999999999999999",
       "timeout_ms must be a non-negative integer, got "
       "\"99999999999999999999\""},
      {"budget_mb=18446744073709551616",
       "budget_mb must be a non-negative integer, got "
       "\"18446744073709551616\""},
      {"error=1.5", "error must be a real number in [0,1), got \"1.5\""},
      {"algo=depminer error=0.1",
       "error (approximate discovery) requires mine algo=tane"},
      {"algo=depminer error=0",
       "error (approximate discovery) requires mine algo=tane"},
  };
  for (const auto& [params, message] : kRejected) {
    for (const char* dataset : {"ds", "nope"}) {
      r = client.Call(std::string("mine ") + dataset + " " + params);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().code, "InvalidArgument") << dataset << " " << params;
      EXPECT_EQ(r.value().message, message) << dataset << " " << params;
    }
  }

  r = client.Call("bogus-verb");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().code, "InvalidArgument");
}

// MINE and one-shot `fdtool mine` share one name-to-cover call: every
// miner name, plain and ranked, answers the one-shot rendering byte for
// byte, and an unknown name lists the five.
TEST_F(ServerTest, MineMatchesTheOneShotCoverForEveryMiner) {
  StartServer();
  ServerClient client = Connect();
  const Relation relation = RandomRelation(5, 40, 3, 13);
  PutRelation(client, "ds", relation);

  for (const MinerSpec& miner : Miners()) {
    for (const size_t top_k : {size_t{0}, size_t{3}}) {
      MineRequest request;
      request.mining.top_k = top_k;
      Result<MineOutcome> one_shot = MineByName(relation, miner.name, request);
      ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
      std::string command =
          std::string("mine ds algo=") + miner.name + " nocache=1";
      if (top_k != 0) command += " topk=" + std::to_string(top_k);
      Result<Response> served = client.Call(command);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_TRUE(served.value().ok) << command << ": "
                                     << served.value().message;
      EXPECT_EQ(served.value().body,
                RenderCover(one_shot.value(), relation.schema()))
          << command;
    }
    if (std::string(miner.name) != "tane") {
      // Approximate discovery is TANE-only; the others refuse a threshold.
      Result<Response> approx =
          client.Call(std::string("mine ds algo=") + miner.name +
                      " error=0.1");
      ASSERT_TRUE(approx.ok());
      EXPECT_EQ(approx.value().code, "InvalidArgument") << miner.name;
    }
  }

  Result<Response> unknown = client.Call("mine ds algo=tanee");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown.value().ok);
  EXPECT_EQ(unknown.value().code, "InvalidArgument");
  EXPECT_NE(unknown.value().message.find(
                "depminer|depminer2|tane|fastfds|fdep"),
            std::string::npos)
      << unknown.value().message;
}

// A MINE's timeout_ms= and budget_mb= govern its own RunContext. A 1 MiB
// budget trips on a relation that charges more (5000 x 15 charges about
// 1.5 MB) with a sound partial cover that is never cached; a limit past
// what the clock or size_t can represent is no limit.
TEST_F(ServerTest, MineLimitsTripSoundlyAndSaturatePastTheirRange) {
  StartServer();
  ServerClient client = Connect();
  SyntheticConfig config;
  config.num_tuples = 5000;
  config.num_attributes = 15;
  config.identical_rate = 0.5;
  config.seed = 42;
  Result<Relation> generated = GenerateSynthetic(config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  PutRelation(client, "ds", generated.value());

  Result<Response> full = client.Call("mine ds nocache=1");
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full.value().ok) << full.value().message;
  ASSERT_EQ(full.value().params.at("complete"), "1");
  const std::vector<std::string> cover = Split(full.value().body, '\n');

  Result<Response> tripped = client.Call("mine ds budget_mb=1");
  ASSERT_TRUE(tripped.ok());
  ASSERT_TRUE(tripped.value().ok) << tripped.value().message;
  EXPECT_EQ(tripped.value().params.at("complete"), "0");
  EXPECT_EQ(tripped.value().params.at("trip"), "CapacityExceeded");
  for (const std::string& line : Split(tripped.value().body, '\n')) {
    EXPECT_NE(std::find(cover.begin(), cover.end(), line), cover.end())
        << line;
  }
  Result<Response> next = client.Call("mine ds");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value().ok) << next.value().message;
  EXPECT_EQ(next.value().params.at("cached"), "0");
  EXPECT_EQ(next.value().body, full.value().body);

  for (const char* limit :
       {"timeout_ms=9300000000000", "budget_mb=17592186044417"}) {
    Result<Response> r =
        client.Call(std::string("mine ds nocache=1 ") + limit);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().ok) << limit << ": " << r.value().message;
    EXPECT_EQ(r.value().params.at("complete"), "1") << limit;
    EXPECT_EQ(r.value().body, full.value().body) << limit;
  }
}

TEST_F(ServerTest, PutRejectsAmbiguousDelimiters) {
  StartServer();
  ServerClient client = Connect();
  const std::string csv = "a;b\n1;2\n3;4\n";
  for (const std::string bad : {"delimiter=;;", "delimiter=\""}) {
    Result<Response> r = client.Call("put ds " + bad, csv);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().ok) << bad;
    EXPECT_EQ(r.value().code, "InvalidArgument") << bad;
  }
  Result<Response> list = client.Call("list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().params.at("count"), "0");

  Result<Response> put = client.Call("put ds delimiter=;", csv);
  ASSERT_TRUE(put.ok());
  ASSERT_TRUE(put.value().ok) << put.value().message;
  EXPECT_EQ(put.value().params.at("attributes"), "2");
  EXPECT_EQ(put.value().params.at("tuples"), "2");
}

TEST_F(ServerTest, TopKRankingAndProfileAndStats) {
  StartServer();
  ServerClient client = Connect();
  PutRelation(client, "ds", RandomRelation(5, 14, 3, 33));

  Result<Response> topk = client.Call("mine ds topk=3");
  ASSERT_TRUE(topk.ok());
  ASSERT_TRUE(topk.value().ok) << topk.value().message;
  // Ranked output is annotated and never cached (it is a truncation).
  EXPECT_EQ(topk.value().params.at("cached"), "0");
  EXPECT_NE(topk.value().body.find("# redundancy="), std::string::npos);

  Result<Response> profile = client.Call("profile ds");
  ASSERT_TRUE(profile.ok());
  ASSERT_TRUE(profile.value().ok) << profile.value().message;
  EXPECT_EQ(profile.value().params.at("format"), "json");
  EXPECT_FALSE(profile.value().body.empty());

  profile = client.Call("profile ds format=md");
  ASSERT_TRUE(profile.ok());
  ASSERT_TRUE(profile.value().ok);

  profile = client.Call("profile ds format=xml");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().code, "InvalidArgument");

  Result<Response> stats = client.Call("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().ok);
  EXPECT_NE(stats.value().body.find("server/requests"), std::string::npos);
  EXPECT_NE(stats.value().body.find("request_latency_ns/MINE"),
            std::string::npos);
}

TEST_F(ServerTest, GracefulDrainLeavesAReopenableCatalog) {
  StartServer();
  {
    ServerClient client = Connect();
    PutRelation(client, "ds", RandomRelation(4, 20, 3, 17));
  }
  StopServer();
  server_.reset();

  // The socket is gone (new connects fail fast instead of hanging) and
  // the catalog the daemon wrote opens cleanly with the dataset intact.
  EXPECT_FALSE(std::filesystem::exists(socket_));
  Result<Catalog> catalog = Catalog::Open(dir_);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_TRUE(catalog.value().Contains("ds"));
  EXPECT_TRUE(catalog.value().Get("ds").ok());
}

// ---------------------------------------------------------------------
// Wire-protocol unit coverage (no daemon involved).

TEST(ProtocolTest, FramesRoundTripOverASocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payloads[] = {"", "ping", std::string(100000, 'x'),
                                  std::string("line1\nline2\n")};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(SendFrame(fds[0], payload).ok());
    std::string back;
    Result<bool> got = RecvFrame(fds[1], &back);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value());
    EXPECT_EQ(back, payload);
  }
  // Clean EOF at a frame boundary is "no more frames", not an error.
  ::close(fds[0]);
  std::string back;
  Result<bool> got = RecvFrame(fds[1], &back);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
  ::close(fds[1]);
}

TEST(ProtocolTest, RejectsMalformedAndOversizedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string bogus = "notanumber\n";
  ASSERT_EQ(::send(fds[0], bogus.data(), bogus.size(), 0),
            static_cast<ssize_t>(bogus.size()));
  std::string back;
  EXPECT_FALSE(RecvFrame(fds[1], &back).ok());
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string huge = std::to_string((300ull << 20)) + "\n";
  ASSERT_EQ(::send(fds[0], huge.data(), huge.size(), 0),
            static_cast<ssize_t>(huge.size()));
  Result<bool> got = RecvFrame(fds[1], &back);
  EXPECT_FALSE(got.ok());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, ParsesRequestsAndResponses) {
  Result<Request> request =
      ParseRequest("mine ds algo=tane threads=4\nbody line");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request.value().verb, "MINE");
  ASSERT_EQ(request.value().positional.size(), 1u);
  EXPECT_EQ(request.value().positional[0], "ds");
  EXPECT_EQ(request.value().params.at("algo"), "tane");
  EXPECT_EQ(request.value().params.at("threads"), "4");
  EXPECT_EQ(request.value().body, "body line");

  EXPECT_FALSE(ParseRequest("").ok());

  const std::string ok_payload =
      FormatOk({{"fds", "12"}, {"cached", "1"}}, "A -> B\n");
  Result<Response> ok_response = ParseResponse(ok_payload);
  ASSERT_TRUE(ok_response.ok());
  EXPECT_TRUE(ok_response.value().ok);
  EXPECT_EQ(ok_response.value().params.at("fds"), "12");
  EXPECT_EQ(ok_response.value().params.at("cached"), "1");
  EXPECT_EQ(ok_response.value().body, "A -> B\n");

  const std::string err_payload =
      FormatError(Status::ResourceExhausted("server at capacity"));
  Result<Response> err_response = ParseResponse(err_payload);
  ASSERT_TRUE(err_response.ok());
  EXPECT_FALSE(err_response.value().ok);
  EXPECT_EQ(err_response.value().code, "ResourceExhausted");
  EXPECT_EQ(err_response.value().message, "server at capacity");
}

}  // namespace
}  // namespace depminer
