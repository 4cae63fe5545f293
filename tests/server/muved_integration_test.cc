// In-process integration tests for muved: a real MuvedServer on an
// ephemeral loopback port, driven through the same DialLocal/RoundTrip
// client path muve_loadgen uses.
//
// Uses the toy dataset almost everywhere (milliseconds to search) so the
// suite stays fast; the deadline test uses NBA, whose full muve-muve
// search is comfortably longer than a 1 ms deadline.

#include "server/muved_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"

namespace muve::server {
namespace {

using muve::common::StatusCode;

class MuvedIntegrationTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.port = 0;  // ephemeral
    server_ = std::make_unique<MuvedServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  int Dial() {
    auto fd = DialLocal(server_->port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  static JsonValue Request(const std::string& op) {
    JsonValue r = JsonValue::Object();
    r.Set("op", JsonValue::String(op));
    return r;
  }

  // RoundTrip that asserts transport health.
  static JsonValue Call(int fd, const JsonValue& request) {
    auto response = RoundTrip(fd, request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : JsonValue::Object();
  }

  static bool IsOk(const JsonValue& response) {
    const JsonValue* ok = response.Find("ok");
    return ok != nullptr && ok->is_bool() && ok->bool_value();
  }

  static std::string ErrorCode(const JsonValue& response) {
    const JsonValue* error = response.Find("error");
    if (error == nullptr || error->Find("code") == nullptr) return "";
    return error->Find("code")->string_value();
  }

  static std::string ErrorMessage(const JsonValue& response) {
    const JsonValue* error = response.Find("error");
    if (error == nullptr || error->Find("message") == nullptr) return "";
    return error->Find("message")->string_value();
  }

  static JsonValue ToyRecommend() {
    JsonValue r = Request("recommend");
    r.Set("dataset", JsonValue::String("toy"));
    r.Set("k", JsonValue::Int(3));
    return r;
  }

  std::unique_ptr<MuvedServer> server_;
};

TEST_F(MuvedIntegrationTest, PingReportsDispatchLevel) {
  StartServer();
  const int fd = Dial();
  JsonValue response = Call(fd, Request("ping"));
  EXPECT_TRUE(IsOk(response));
  EXPECT_EQ(response.Find("simd")->string_value(),
            common::simd::ActiveLevelName());
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, UseThenRecommendInheritsSessionState) {
  StartServer();
  const int fd = Dial();
  JsonValue use = Request("use");
  use.Set("dataset", JsonValue::String("toy"));
  JsonValue use_response = Call(fd, use);
  ASSERT_TRUE(IsOk(use_response)) << use_response.Write();
  EXPECT_GT(use_response.Find("rows")->int_value(), 0);
  EXPECT_GT(use_response.Find("views")->int_value(), 0);

  JsonValue defaults = Request("defaults");
  defaults.Set("k", JsonValue::Int(2));
  defaults.Set("scheme", JsonValue::String("muve-linear"));
  ASSERT_TRUE(IsOk(Call(fd, defaults)));

  // Bare recommend: dataset, k, and scheme all come from the session.
  JsonValue response = Call(fd, Request("recommend"));
  ASSERT_TRUE(IsOk(response)) << response.Write();
  EXPECT_EQ(response.Find("dataset")->string_value(), "toy");
  EXPECT_EQ(response.Find("k")->int_value(), 2);
  EXPECT_LE(response.Find("views")->array().size(), 2u);
  EXPECT_FALSE(response.Find("degraded")->bool_value());
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, RecommendWithoutDatasetFailsWithGuidance) {
  StartServer();
  const int fd = Dial();
  JsonValue response = Call(fd, Request("recommend"));
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), "invalid_argument");
  EXPECT_NE(ErrorMessage(response).find("use"), std::string::npos);
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, StrictFieldValidation) {
  StartServer();
  const int fd = Dial();

  // Unknown field.
  JsonValue unknown = ToyRecommend();
  unknown.Set("kay", JsonValue::Int(3));
  JsonValue response = Call(fd, unknown);
  EXPECT_FALSE(IsOk(response));
  EXPECT_NE(ErrorMessage(response).find("kay"), std::string::npos);

  // Integer field sent as a double.
  JsonValue doubled = ToyRecommend();
  doubled.Set("k", JsonValue::Double(3.0));
  response = Call(fd, doubled);
  EXPECT_FALSE(IsOk(response));
  EXPECT_NE(ErrorMessage(response).find("k"), std::string::npos);

  // Out-of-range k.
  JsonValue zero_k = ToyRecommend();
  zero_k.Set("k", JsonValue::Int(0));
  response = Call(fd, zero_k);
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), "invalid_argument");

  // Malformed weights.
  JsonValue bad_weights = ToyRecommend();
  JsonValue weights = JsonValue::Array();
  weights.Append(JsonValue::Double(0.5));
  bad_weights.Set("weights", std::move(weights));
  response = Call(fd, bad_weights);
  EXPECT_FALSE(IsOk(response));
  EXPECT_NE(ErrorMessage(response).find("weights"), std::string::npos);

  // Unknown scheme and dataset.
  JsonValue bad_scheme = ToyRecommend();
  bad_scheme.Set("scheme", JsonValue::String("quantum"));
  EXPECT_FALSE(IsOk(Call(fd, bad_scheme)));
  JsonValue bad_dataset = Request("recommend");
  bad_dataset.Set("dataset", JsonValue::String("mnist"));
  EXPECT_FALSE(IsOk(Call(fd, bad_dataset)));

  // The session survived every rejected request.
  EXPECT_TRUE(IsOk(Call(fd, ToyRecommend())));
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, MalformedJsonKeepsSessionAlive) {
  StartServer();
  const int fd = Dial();
  ASSERT_TRUE(WriteFrame(fd, "{not json at all").ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &payload).ok());
  auto response = ParseJson(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(IsOk(*response));
  EXPECT_EQ(ErrorCode(*response), "parse_error");
  // Same connection still serves requests.
  EXPECT_TRUE(IsOk(Call(fd, Request("ping"))));
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, BadFrameHeaderDropsConnectionNotServer) {
  StartServer();
  const int bad_fd = Dial();
  // A zero length prefix cannot be resynchronized: the server answers
  // with a protocol error and hangs up this connection.
  const unsigned char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::write(bad_fd, zero, 4), 4);
  std::string payload;
  ASSERT_TRUE(ReadFrame(bad_fd, &payload).ok());
  auto response = ParseJson(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(IsOk(*response));
  EXPECT_EQ(ErrorCode(*response), "parse_error");
  EXPECT_EQ(ReadFrame(bad_fd, &payload).code(), StatusCode::kNotFound);
  ::close(bad_fd);

  // The server keeps serving fresh connections.
  const int fd = Dial();
  EXPECT_TRUE(IsOk(Call(fd, Request("ping"))));
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, ClientVanishingBeforeResponseDoesNotKillServer) {
  StartServer();
  // A client that sends a request and immediately RSTs the connection
  // (SO_LINGER 0 + close) races the server's response write.  Whichever
  // side of the race an iteration lands on — the read fails, or the
  // response write hits the dead socket with EPIPE — the daemon must
  // survive.  The server runs in-process, so a raised SIGPIPE would kill
  // this very test binary.
  for (int i = 0; i < 20; ++i) {
    const int fd = Dial();
    ASSERT_TRUE(WriteMessage(fd, Request("ping")).ok());
    struct linger hard = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }
  const int fd = Dial();
  EXPECT_TRUE(IsOk(Call(fd, Request("ping"))));
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, DeadlineTrippedRequestIsDegradedButOk) {
  StartServer();
  const int fd = Dial();
  JsonValue request = Request("recommend");
  request.Set("dataset", JsonValue::String("nba"));
  request.Set("k", JsonValue::Int(5));
  request.Set("deadline_ms", JsonValue::Double(1.0));
  JsonValue response = Call(fd, request);
  ASSERT_TRUE(IsOk(response)) << response.Write();
  // The anytime contract over the wire: ok:true with a completeness
  // block, never an error.  (A 1 ms deadline on a cold NBA search always
  // trips; if a future machine finishes in time, degraded=false is also
  // legal — assert consistency, not the trip.)
  const JsonValue* completeness = response.Find("completeness");
  ASSERT_NE(completeness, nullptr);
  if (response.Find("degraded")->bool_value()) {
    EXPECT_EQ(completeness->Find("status")->string_value(),
              "deadline_exceeded");
  } else {
    EXPECT_EQ(completeness->Find("status")->string_value(), "ok");
  }
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, EightConcurrentSessions) {
  ServerOptions options;
  options.max_concurrent = 4;  // half the sessions queue at the gate
  StartServer(options);
  constexpr int kSessions = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kSessions, 0);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([this, s, &failures] {
      auto fd = DialLocal(server_->port());
      if (!fd.ok()) {
        failures[s] = 1;
        return;
      }
      for (int i = 0; i < 3; ++i) {
        auto response = RoundTrip(*fd, ToyRecommend());
        if (!response.ok() || !IsOk(*response)) {
          failures[s] = 1;
          break;
        }
      }
      ::close(*fd);
    });
  }
  for (auto& t : threads) t.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(failures[s], 0) << "session " << s;
  }
  const auto counters = server_->counters();
  EXPECT_GE(counters.connections_accepted, kSessions);
  // Identical frames may be answered from the result cache: every request
  // is accounted for either as an execution or as a cache hit.
  EXPECT_GE(counters.recommends_executed + counters.result_cache_hits,
            kSessions * 3);
  EXPECT_GE(counters.recommends_executed, 1);
  EXPECT_EQ(counters.errors_returned, 0);
}

TEST_F(MuvedIntegrationTest, DispatchInvarianceAcrossTheWire) {
  // The acceptance check: the same request answered under forced-scalar
  // and native dispatch must produce byte-identical payloads.
  StartServer();
  JsonValue request = ToyRecommend();
  request.Set("scheme", JsonValue::String("muve-muve"));
  request.Set("probe_order", JsonValue::String("deviation-first"));

  auto payload_under = [&](common::simd::DispatchLevel level) {
    EXPECT_TRUE(common::simd::SetActiveLevel(level));
    const int fd = Dial();
    auto response = RoundTrip(fd, request);
    EXPECT_TRUE(response.ok());
    ::close(fd);
    return response.ok() ? response->Write() : std::string();
  };
  const std::string scalar =
      payload_under(common::simd::DispatchLevel::kScalar);
  const std::string native =
      payload_under(common::simd::BestSupportedLevel());
  EXPECT_TRUE(common::simd::SetActiveLevel(common::simd::BestSupportedLevel()));
  ASSERT_FALSE(scalar.empty());
  EXPECT_EQ(scalar, native);
}

TEST_F(MuvedIntegrationTest, ShutdownOpDrainsAndStops) {
  StartServer();
  const int fd = Dial();
  JsonValue response = Call(fd, Request("shutdown"));
  EXPECT_TRUE(IsOk(response));
  ::close(fd);
  server_->Wait();  // returns because the op requested stop
  server_->Stop();
  // New connections are refused once stopped.
  EXPECT_FALSE(DialLocal(server_->port()).ok());
}

TEST_F(MuvedIntegrationTest, ShutdownOpCanBeDisabled) {
  ServerOptions options;
  options.allow_shutdown_op = false;
  StartServer(options);
  const int fd = Dial();
  JsonValue response = Call(fd, Request("shutdown"));
  EXPECT_FALSE(IsOk(response));
  // Still serving.
  EXPECT_TRUE(IsOk(Call(fd, Request("ping"))));
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, StopWithIdleOpenConnectionsDoesNotHang) {
  StartServer();
  const int fd = Dial();
  ASSERT_TRUE(IsOk(Call(fd, Request("ping"))));
  // Leave the connection idle (blocked in the server's frame read) and
  // stop: Stop() must unblock the handler and join it promptly.
  server_->Stop();
  std::string payload;
  EXPECT_FALSE(ReadFrame(fd, &payload).ok());  // server hung up
  ::close(fd);
  server_ = nullptr;
}

TEST_F(MuvedIntegrationTest, PredicateFiltersAndValidates) {
  StartServer();
  const int fd = Dial();
  JsonValue request = Request("recommend");
  request.Set("dataset", JsonValue::String("nba"));
  request.Set("predicate", JsonValue::String("Age >= 30"));
  request.Set("k", JsonValue::Int(2));
  request.Set("scheme", JsonValue::String("muve-linear"));
  JsonValue response = Call(fd, request);
  EXPECT_TRUE(IsOk(response)) << response.Write();

  JsonValue empty = Request("recommend");
  empty.Set("dataset", JsonValue::String("nba"));
  empty.Set("predicate", JsonValue::String("Age > 1000"));
  response = Call(fd, empty);
  EXPECT_FALSE(IsOk(response));
  EXPECT_NE(ErrorMessage(response).find("no rows"), std::string::npos);

  JsonValue malformed = Request("recommend");
  malformed.Set("dataset", JsonValue::String("nba"));
  malformed.Set("predicate", JsonValue::String("Age >>> 30"));
  EXPECT_FALSE(IsOk(Call(fd, malformed)));
  ::close(fd);
}

// A predicate is a bare WHERE condition: trailing clauses get a typed
// invalid_argument frame on recommend and on create (where the default
// predicate is validated), instead of being dropped from the selection
// and from the canonical key.
TEST_F(MuvedIntegrationTest, PredicateWithTrailingClausesIsRejected) {
  StartServer();
  const int fd = Dial();
  for (const char* predicate :
       {"Age >= 30 ORDER BY Age", "Age >= 30 LIMIT 1",
        "Age >= 30 GROUP BY Age NUMBER OF BINS 3"}) {
    JsonValue request = Request("recommend");
    request.Set("dataset", JsonValue::String("nba"));
    request.Set("predicate", JsonValue::String(predicate));
    request.Set("scheme", JsonValue::String("linear-linear"));
    const JsonValue response = Call(fd, request);
    EXPECT_FALSE(IsOk(response)) << predicate;
    EXPECT_EQ(ErrorCode(response), "invalid_argument") << response.Write();
    EXPECT_NE(ErrorMessage(response).find("trailing"), std::string::npos)
        << response.Write();
  }

  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("t"));
  create.Set("csv", JsonValue::String("a,x,m\n1,1,2\n2,3,4\n"));
  JsonValue cols = JsonValue::Array();
  cols.Append(JsonValue::String("x"));
  create.Set("dims", cols);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("a = 1 LIMIT 1"));
  JsonValue response = Call(fd, create);
  EXPECT_EQ(ErrorCode(response), "invalid_argument") << response.Write();

  // The session survives and the bare condition still works.
  JsonValue bare = Request("recommend");
  bare.Set("dataset", JsonValue::String("nba"));
  bare.Set("predicate", JsonValue::String("Age >= 30"));
  bare.Set("scheme", JsonValue::String("linear-linear"));
  response = Call(fd, bare);
  EXPECT_TRUE(IsOk(response)) << response.Write();
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Cross-request shared execution (DESIGN.md §13).
// ---------------------------------------------------------------------------

// A fully cacheable, deterministic frame: no deadline, no row budget, no
// timings, deviation-first probe order.
JsonValue CacheableToyRecommend() {
  JsonValue r = JsonValue::Object();
  r.Set("op", JsonValue::String("recommend"));
  r.Set("dataset", JsonValue::String("toy"));
  r.Set("k", JsonValue::Int(3));
  r.Set("scheme", JsonValue::String("muve-muve"));
  r.Set("probe_order", JsonValue::String("deviation-first"));
  return r;
}

TEST_F(MuvedIntegrationTest, ResultCacheServesByteIdenticalSecondResponse) {
  StartServer();
  const JsonValue request = CacheableToyRecommend();

  // First session: executes and stores.
  const int fd1 = Dial();
  auto first = RoundTrip(fd1, request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(IsOk(*first)) << first->Write();
  ::close(fd1);

  // Second session, same frame: answered from the result cache with the
  // exact bytes of the first response.
  const int fd2 = Dial();
  auto second = RoundTrip(fd2, request);
  ASSERT_TRUE(second.ok());
  ::close(fd2);
  EXPECT_EQ(first->Write(), second->Write());

  const auto counters = server_->counters();
  EXPECT_EQ(counters.recommends_executed, 1);
  EXPECT_EQ(counters.result_cache_hits, 1);
  EXPECT_EQ(counters.result_cache_stores, 1);
}

TEST_F(MuvedIntegrationTest, PermutedPredicateSpellingsShareCaches) {
  StartServer();
  auto with_predicate = [](const char* predicate) {
    JsonValue r = CacheableToyRecommend();
    r.Set("predicate", JsonValue::String(predicate));
    return r;
  };
  const int fd = Dial();
  auto first = RoundTrip(fd, with_predicate("x >= 2 AND m1 > 0"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(IsOk(*first)) << first->Write();
  // The operand-permuted spelling keys identically end to end (registry,
  // base-histogram store, result cache): served without executing.
  auto second = RoundTrip(fd, with_predicate("m1 > 0 AND x >= 2"));
  ASSERT_TRUE(second.ok());
  ::close(fd);
  EXPECT_EQ(first->Write(), second->Write());
  const auto counters = server_->counters();
  EXPECT_EQ(counters.recommends_executed, 1);
  EXPECT_EQ(counters.result_cache_hits, 1);
}

TEST_F(MuvedIntegrationTest, InvalidateBumpsEpochAndRecomputes) {
  StartServer();
  const JsonValue request = CacheableToyRecommend();
  const int fd = Dial();
  auto first = RoundTrip(fd, request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(IsOk(*first)) << first->Write();

  JsonValue invalidate = Request("invalidate");
  invalidate.Set("dataset", JsonValue::String("toy"));
  auto bumped = RoundTrip(fd, invalidate);
  ASSERT_TRUE(bumped.ok());
  ASSERT_TRUE(IsOk(*bumped)) << bumped->Write();
  // The catalog's data_epoch starts at 1 for every table; the first
  // invalidation bumps it to 2.
  EXPECT_EQ(bumped->Find("epoch")->int_value(), 2);

  // Post-invalidation the same frame must NOT be served stale: it
  // re-executes under the new epoch.  (The toy search is deterministic,
  // so the recomputed payload still matches byte for byte — staleness is
  // asserted through the counters, not the bytes.)
  auto third = RoundTrip(fd, request);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(IsOk(*third)) << third->Write();
  EXPECT_EQ(first->Write(), third->Write());
  const auto counters = server_->counters();
  EXPECT_EQ(counters.recommends_executed, 2);
  EXPECT_EQ(counters.result_cache_hits, 0);

  // Unknown dataset is rejected; epoch of others untouched.
  JsonValue bad = Request("invalidate");
  bad.Set("dataset", JsonValue::String("mnist"));
  EXPECT_FALSE(IsOk(Call(fd, bad)));
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, StatsOpReportsConsistentCacheCounters) {
  StartServer();
  const int fd = Dial();
  JsonValue with_pred = CacheableToyRecommend();
  with_pred.Set("predicate", JsonValue::String("x >= 2"));
  ASSERT_TRUE(IsOk(Call(fd, with_pred)));
  ASSERT_TRUE(IsOk(Call(fd, with_pred)));  // result-cache hit

  JsonValue stats = Call(fd, Request("stats"));
  ASSERT_TRUE(IsOk(stats)) << stats.Write();
  EXPECT_EQ(stats.Find("result_cache_hits")->int_value(), 1);
  EXPECT_EQ(stats.Find("result_cache_stores")->int_value(), 1);
  EXPECT_EQ(stats.Find("result_cache_entries")->int_value(), 1);
  const JsonValue* base = stats.Find("base_cache");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->Find("hits")->int_value() +
                base->Find("misses")->int_value(),
            base->Find("lookups")->int_value());
  EXPECT_EQ(base->Find("predicates")->int_value(), 1);

  // The op has a strict field whitelist like every other.
  JsonValue bad = Request("stats");
  bad.Set("verbose", JsonValue::Bool(true));
  EXPECT_FALSE(IsOk(Call(fd, bad)));
  ::close(fd);
}

// The build-work counters of a recommend's `stats`.  A long-lived
// server that already holds some bases (another predicate built the
// shared comparison side) truthfully reports less build work than a cold
// server does for the same frame.
constexpr const char* kBuildCounters[] = {
    "rows_scanned", "build_rows_scanned", "base_builds",
    "base_cache_hits", "fused_builds", "fused_coalesced"};

// The sharing differential: `shared` (long-lived server) equals `cold`
// byte for byte — views and every other stats field included — apart
// from the build counters, each of which is at most the cold server's.
// When `memoized`, the long-lived server's score memo may also have
// answered probes: `memo_hits` is at least the cold server's, and
// `probe_rows_scanned` (a hit scans no rows) at most.
void ExpectSameAnswer(const JsonValue& shared, const JsonValue& cold,
                      bool memoized = false) {
  const JsonValue* shared_stats = shared.Find("stats");
  const JsonValue* cold_stats = cold.Find("stats");
  ASSERT_NE(shared_stats, nullptr) << shared.Write();
  ASSERT_NE(cold_stats, nullptr) << cold.Write();
  JsonValue shared_rest = *shared_stats;
  JsonValue cold_rest = *cold_stats;
  auto mask = [&](const char* counter, bool shared_at_most_cold) {
    ASSERT_NE(shared_stats->Find(counter), nullptr) << counter;
    ASSERT_NE(cold_stats->Find(counter), nullptr) << counter;
    const int64_t a = shared_stats->Find(counter)->int_value();
    const int64_t b = cold_stats->Find(counter)->int_value();
    if (shared_at_most_cold) {
      EXPECT_LE(a, b) << counter;
    } else {
      EXPECT_GE(a, b) << counter;
    }
    shared_rest.Set(counter, JsonValue::Int(0));
    cold_rest.Set(counter, JsonValue::Int(0));
  };
  for (const char* counter : kBuildCounters) mask(counter, true);
  if (memoized) {
    mask("probe_rows_scanned", true);
    mask("memo_hits", false);
  }
  JsonValue shared_masked = shared;
  JsonValue cold_masked = cold;
  shared_masked.Set("stats", std::move(shared_rest));
  cold_masked.Set("stats", std::move(cold_rest));
  EXPECT_EQ(shared_masked.Write(), cold_masked.Write());
}

// `request`'s response from a server of its own that saw nothing else.
JsonValue ColdAnswer(const JsonValue& request,
                     const JsonValue* create = nullptr) {
  ServerOptions options;
  options.port = 0;
  MuvedServer cold(options);
  EXPECT_TRUE(cold.Start().ok());
  auto fd = DialLocal(cold.port());
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return JsonValue::Object();
  if (create != nullptr) {
    auto created = RoundTrip(*fd, *create);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (created.ok()) EXPECT_TRUE(created->Find("ok")->bool_value());
  }
  auto response = RoundTrip(*fd, request);
  ::close(*fd);
  cold.Stop();
  EXPECT_TRUE(response.ok());
  return response.ok() ? *response : JsonValue::Object();
}

int64_t StatOf(const JsonValue& response, const char* field) {
  const JsonValue* stats = response.Find("stats");
  const JsonValue* value = stats != nullptr ? stats->Find(field) : nullptr;
  return value != nullptr ? value->int_value() : -1;
}

TEST_F(MuvedIntegrationTest, SharingOffMatchesSharingOnByteForByte) {
  // The server-level differential: a long-lived server, which reuses its
  // registry, base-histogram store and result cache across requests,
  // answers every frame with the bytes a cold server gives the same
  // frame, apart from the build counters (ExpectSameAnswer) — sharing is
  // semantically invisible on the wire.
  std::vector<JsonValue> requests;
  for (const char* predicate : {"", "x >= 2", "m1 > 0 AND x >= 2"}) {
    JsonValue r = CacheableToyRecommend();
    if (*predicate != '\0') r.Set("predicate", JsonValue::String(predicate));
    requests.push_back(r);
    requests.push_back(r);  // the repeat is a result-cache hit
  }
  StartServer();
  const int fd = Dial();
  int64_t saved_rows = 0;
  for (const JsonValue& request : requests) {
    auto shared = RoundTrip(fd, request);
    ASSERT_TRUE(shared.ok());
    ASSERT_TRUE(IsOk(*shared)) << shared->Write();
    const JsonValue fresh = ColdAnswer(request);
    ExpectSameAnswer(*shared, fresh);
    saved_rows += StatOf(fresh, "build_rows_scanned") -
                  StatOf(*shared, "build_rows_scanned");
  }
  ::close(fd);
  // The second and third predicates read the first one's comparison
  // side instead of building it.
  EXPECT_GT(saved_rows, 0);
  const auto counters = server_->counters();
  EXPECT_EQ(counters.result_cache_hits, 3);
  EXPECT_EQ(counters.recommends_executed, 3);
}

TEST_F(MuvedIntegrationTest, StatsCountsEveryHeldBaseStore) {
  // Every predicate of a table version shares one comparison side: five
  // predicates build each comparison pair once and each target pair
  // once per predicate, in the one server-wide store, and stats counts
  // the predicates whose target bases the store holds.
  ServerOptions options;
  options.max_recommenders = 2;
  StartServer(options);
  const int fd = Dial();
  int64_t first_rows = 0;
  int64_t build_rows = 0;
  for (const char* predicate :
       {"x >= 1", "x >= 2", "x >= 3", "m1 > 0", "y >= 1"}) {
    JsonValue r = CacheableToyRecommend();
    r.Set("predicate", JsonValue::String(predicate));
    JsonValue response = Call(fd, r);
    ASSERT_TRUE(IsOk(response)) << predicate;
    const int64_t rows =
        response.Find("stats")->Find("build_rows_scanned")->int_value();
    if (first_rows == 0) first_rows = rows;
    build_rows += rows;
  }
  JsonValue stats = Call(fd, Request("stats"));
  ASSERT_TRUE(IsOk(stats)) << stats.Write();
  const JsonValue* base = stats.Find("base_cache");
  ASSERT_NE(base, nullptr);
  const JsonValue* target = base->Find("target");
  const JsonValue* comparison = base->Find("comparison");
  ASSERT_NE(target, nullptr);
  ASSERT_NE(comparison, nullptr);
  EXPECT_EQ(base->Find("predicates")->int_value(), 5);
  const int64_t pairs = comparison->Find("builds")->int_value();
  EXPECT_GT(pairs, 0);
  EXPECT_EQ(target->Find("builds")->int_value(), 5 * pairs);
  EXPECT_EQ(base->Find("builds")->int_value(), 6 * pairs);
  EXPECT_EQ(comparison->Find("hits")->int_value(), 4 * pairs);
  EXPECT_EQ(target->Find("bytes")->int_value() +
                comparison->Find("bytes")->int_value(),
            base->Find("bytes")->int_value());
  EXPECT_LE(base->Find("bytes")->int_value(),
            base->Find("max_bytes")->int_value());
  // Only the first predicate scanned the toy table's comparison side.
  EXPECT_LT(build_rows, 5 * first_rows);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Overload & connection lifecycle (DESIGN.md §14)

// A recommend that holds an execution slot for a long-but-bounded
// stretch: the exhaustive NBA linear-linear search (hundreds of
// milliseconds natively) under a deadline that caps it even when a
// sanitizer slows the search by an order of magnitude — tests that
// join the occupant must not wait out a full TSan-speed exhaustive
// scan.  include_timings keeps it out of the result cache, so every
// copy executes and takes a real slot.
JsonValue SlowNbaRecommend() {
  JsonValue r = JsonValue::Object();
  r.Set("op", JsonValue::String("recommend"));
  r.Set("dataset", JsonValue::String("nba"));
  r.Set("scheme", JsonValue::String("linear-linear"));
  r.Set("k", JsonValue::Int(5));
  r.Set("deadline_ms", JsonValue::Double(1500.0));
  r.Set("include_timings", JsonValue::Bool(true));
  return r;
}

// Polls the gate-free health op until in_flight reaches `expected` (or
// ~10 s pass — generous for sanitizer builds).  Returns the last health
// response so callers can assert on the rest of its fields.
JsonValue WaitForInFlight(int port, int64_t expected) {
  auto fd = DialLocal(port);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return JsonValue::Object();
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::String("health"));
  JsonValue health = JsonValue::Object();
  for (int i = 0; i < 5000; ++i) {
    auto response = RoundTrip(*fd, request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) break;
    health = *response;
    const JsonValue* in_flight = health.Find("in_flight");
    if (in_flight != nullptr && in_flight->int_value() >= expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(*fd);
  return health;
}

TEST_F(MuvedIntegrationTest, FullQueueBurstShedsByteStableOverloadedFrame) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;          // no waiting room: busy slot => shed now
  options.queue_timeout_ms = 77;  // doubles as the retry_after_ms hint
  StartServer(options);

  const int slow_fd = Dial();
  std::thread occupant([slow_fd] {
    auto response = RoundTrip(slow_fd, SlowNbaRecommend());
    EXPECT_TRUE(response.ok());
  });
  JsonValue health = WaitForInFlight(server_->port(), 1);
  ASSERT_EQ(health.Find("in_flight")->int_value(), 1) << health.Write();

  // The shed frame's exact bytes are protocol surface: scripted clients
  // parse this shape, so pin it byte for byte.
  const int fd = Dial();
  ASSERT_TRUE(WriteMessage(fd, ToyRecommend()).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &payload).ok());
  EXPECT_EQ(payload,
            "{\"ok\":false,\"error\":{\"code\":\"unavailable\",\"exit_code\":7,"
            "\"message\":\"overloaded: admission queue is full\","
            "\"retry_after_ms\":77}}");
  ::close(fd);
  occupant.join();
  ::close(slow_fd);

  const auto counters = server_->counters();
  EXPECT_EQ(counters.requests_shed_queue_full, 1);
  // At quiescence the admission ledger balances exactly.
  EXPECT_EQ(counters.requests_offered,
            counters.requests_admitted + counters.requests_shed_queue_full +
                counters.requests_shed_timeout +
                counters.requests_shed_deadline +
                counters.requests_rejected_stopping);
}

TEST_F(MuvedIntegrationTest, QueueTimeoutShedsWithTypedFrame) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.queue_timeout_ms = 60;  // far below the NBA search's runtime
  StartServer(options);

  const int slow_fd = Dial();
  std::thread occupant([slow_fd] {
    auto response = RoundTrip(slow_fd, SlowNbaRecommend());
    EXPECT_TRUE(response.ok());
  });
  WaitForInFlight(server_->port(), 1);

  const int fd = Dial();
  JsonValue response = Call(fd, ToyRecommend());
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), "unavailable");
  EXPECT_EQ(ErrorMessage(response),
            "overloaded: no execution slot freed within queue timeout");
  EXPECT_EQ(response.Find("error")->Find("retry_after_ms")->int_value(), 60);
  ::close(fd);
  occupant.join();
  ::close(slow_fd);
  EXPECT_EQ(server_->counters().requests_shed_timeout, 1);
}

TEST_F(MuvedIntegrationTest, SpentDeadlineIsShedInsteadOfQueueing) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.queue_timeout_ms = 0;  // would wait forever — the shed is typed
  StartServer(options);

  const int slow_fd = Dial();
  std::thread occupant([slow_fd] {
    auto response = RoundTrip(slow_fd, SlowNbaRecommend());
    EXPECT_TRUE(response.ok());
  });
  WaitForInFlight(server_->port(), 1);

  // deadline_ms:0 has no budget left by admission time; queueing it
  // could only ever produce a fully degraded answer, so it sheds typed.
  const int fd = Dial();
  JsonValue request = ToyRecommend();
  request.Set("deadline_ms", JsonValue::Double(0.0));
  JsonValue response = Call(fd, request);
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), "unavailable");
  EXPECT_EQ(ErrorMessage(response),
            "overloaded: request deadline already spent before admission");
  ::close(fd);
  occupant.join();
  ::close(slow_fd);
  EXPECT_EQ(server_->counters().requests_shed_deadline, 1);
}

TEST_F(MuvedIntegrationTest, QueueWaitIsChargedAgainstDeadline) {
  // Satellite regression: a request that queues past its own deadline is
  // admitted (it had budget when it joined the queue) but the engine
  // sees a spent deadline and returns the anytime degraded answer — an
  // ok:true frame, never an error and never a wedged connection.
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.queue_timeout_ms = 0;  // wait as long as it takes
  StartServer(options);

  const int slow_fd = Dial();
  std::thread occupant([slow_fd] {
    auto response = RoundTrip(slow_fd, SlowNbaRecommend());
    EXPECT_TRUE(response.ok());
  });
  WaitForInFlight(server_->port(), 1);

  const int fd = Dial();
  JsonValue request = ToyRecommend();
  request.Set("deadline_ms", JsonValue::Double(20.0));  // << NBA runtime
  request.Set("include_timings", JsonValue::Bool(true));
  JsonValue response = Call(fd, request);
  ASSERT_TRUE(IsOk(response)) << response.Write();
  EXPECT_TRUE(response.Find("degraded")->bool_value()) << response.Write();
  EXPECT_EQ(response.Find("completeness")->Find("status")->string_value(),
            "deadline_exceeded");
  // The wait itself is visible: queue_ms covers the occupant's runtime.
  EXPECT_GT(response.Find("timings")->Find("queue_ms")->number_value(), 20.0);
  ::close(fd);
  occupant.join();
  ::close(slow_fd);
  EXPECT_EQ(server_->counters().requests_shed_deadline, 0);
}

TEST_F(MuvedIntegrationTest, HealthAnswersWhileSaturated) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  StartServer(options);

  const int slow_fd = Dial();
  std::thread occupant([slow_fd] {
    auto response = RoundTrip(slow_fd, SlowNbaRecommend());
    EXPECT_TRUE(response.ok());
  });
  // WaitForInFlight goes through the health op itself, so reaching
  // in_flight==1 proves health answered while the only slot was busy.
  JsonValue health = WaitForInFlight(server_->port(), 1);
  ASSERT_TRUE(IsOk(health)) << health.Write();
  EXPECT_EQ(health.Find("in_flight")->int_value(), 1);
  EXPECT_EQ(health.Find("queue_depth")->int_value(), 0);
  EXPECT_FALSE(health.Find("stopping")->bool_value());
  EXPECT_EQ(health.Find("max_concurrent")->int_value(), 1);
  EXPECT_GE(health.Find("uptime_ms")->int_value(), 0);
  EXPECT_GE(health.Find("connections_live")->int_value(), 1);
  occupant.join();
  ::close(slow_fd);
}

TEST_F(MuvedIntegrationTest, StalledMidFrameClientIsDisconnected) {
  ServerOptions options;
  options.frame_timeout_ms = 100;
  StartServer(options);

  const int fd = Dial();
  // Two header bytes, then silence: a torn frame that would pin the
  // handler thread forever without the mid-frame deadline.
  ASSERT_EQ(::send(fd, "\x00\x00", 2, MSG_NOSIGNAL), 2);
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &payload).ok());
  auto response = ParseJson(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "deadline_exceeded");
  EXPECT_NE(ErrorMessage(*response).find("frame timeout"), std::string::npos);
  // After the goodbye frame the server hangs up.
  EXPECT_EQ(ReadFrame(fd, &payload).code(), StatusCode::kNotFound);
  ::close(fd);
  EXPECT_EQ(server_->counters().frame_timeouts, 1);
}

TEST_F(MuvedIntegrationTest, IdleSessionIsReapedSilently) {
  ServerOptions options;
  options.idle_timeout_ms = 60;
  StartServer(options);

  const int fd = Dial();
  // Say nothing.  An idle drop is not an error — no goodbye frame, just
  // a clean EOF, exactly what a client library treats as "server closed".
  std::string payload;
  EXPECT_EQ(ReadFrame(fd, &payload).code(), StatusCode::kNotFound);
  ::close(fd);
  EXPECT_EQ(server_->counters().idle_timeouts, 1);

  // The port still accepts fresh sessions afterwards.
  const int fd2 = Dial();
  EXPECT_TRUE(IsOk(Call(fd2, Request("ping"))));
  ::close(fd2);
}

TEST_F(MuvedIntegrationTest, ConnectionLimitShedsWithGoodbyeFrame) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  const int fd1 = Dial();
  // A served request proves fd1's handler is registered before fd2
  // arrives (the accept loop is serial, so ordering is deterministic).
  ASSERT_TRUE(IsOk(Call(fd1, Request("ping"))));

  const int fd2 = Dial();
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd2, &payload).ok());
  auto response = ParseJson(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ErrorCode(*response), "unavailable");
  EXPECT_EQ(ErrorMessage(*response), "overloaded: connection limit reached");
  EXPECT_GE(response->Find("error")->Find("retry_after_ms")->int_value(), 1);
  EXPECT_EQ(ReadFrame(fd2, &payload).code(), StatusCode::kNotFound);
  ::close(fd2);

  // The admitted session is untouched.
  EXPECT_TRUE(IsOk(Call(fd1, Request("ping"))));
  ::close(fd1);
  EXPECT_EQ(server_->counters().connections_shed, 1);
}

TEST_F(MuvedIntegrationTest, RetryingClientAbsorbsShedsAndEventuallyLands) {
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  options.queue_timeout_ms = 20;  // small retry_after_ms hint
  StartServer(options);

  const int slow_fd = Dial();
  std::thread occupant([slow_fd] {
    auto response = RoundTrip(slow_fd, SlowNbaRecommend());
    EXPECT_TRUE(response.ok());
  });
  WaitForInFlight(server_->port(), 1);

  // The first attempt is guaranteed to shed (slot busy, no queue); the
  // generous budget means the client outlives the occupant and lands.
  RetryPolicy policy;
  policy.max_attempts = 60;
  policy.base_backoff_ms = 40;
  policy.max_backoff_ms = 250;
  policy.jitter_seed = 7;
  RetryingClient client(server_->port(), policy);
  auto response = client.Call(ToyRecommend());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(IsOk(*response)) << response->Write();
  EXPECT_GE(client.stats().sheds_seen, 1);
  EXPECT_GE(client.stats().retries, 1);
  EXPECT_EQ(client.stats().transport_errors, 0);
  client.Disconnect();
  occupant.join();
  ::close(slow_fd);
}

TEST_F(MuvedIntegrationTest, SlotReleasedWhenHandlerThrows) {
  if (!common::FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMUVE_FAILPOINTS=ON";
  }
  // The engine catches its own worker-pool throws, so the dedicated
  // server.recommend failpoint is the only deterministic way to unwind
  // through HandleRecommend while a slot is held.
  ServerOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  StartServer(options);

  const int fd = Dial();
  ASSERT_TRUE(common::SetFailpoint("server.recommend", "throw").ok());
  JsonValue response = Call(fd, ToyRecommend());
  common::ClearFailpoints();
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), "internal");
  EXPECT_NE(ErrorMessage(response).find("unhandled exception"),
            std::string::npos);

  // The slot the throwing request held was released on unwind: with one
  // slot and no waiting room, a leaked slot would shed this follow-up.
  JsonValue retry = Call(fd, ToyRecommend());
  EXPECT_TRUE(IsOk(retry)) << retry.Write();
  ::close(fd);
}

// --- Catalog ops: create / append / drop + incremental ingest ---

namespace {

// 40 rows, clustered day column, integer dims/measures — mirrors the
// scale workload in miniature.  `begin` lets appends continue the series.
std::string SmallCsv(int begin, int end) {
  std::string csv = "day,x,m\n";  // appends carry the header too
  for (int i = begin; i < end; ++i) {
    csv += std::to_string(i / 10) + "," + std::to_string(i % 7) + "," +
           std::to_string(3 * i + 1) + "\n";
  }
  return csv;
}

}  // namespace

TEST_F(MuvedIntegrationTest, CreateRecommendAppendDropLifecycle) {
  StartServer();
  const int fd = Dial();

  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("mini"));
  create.Set("csv", JsonValue::String(SmallCsv(0, 40)));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("day >= 2"));
  JsonValue created = Call(fd, create);
  ASSERT_TRUE(IsOk(created)) << created.Write();
  EXPECT_EQ(created.Find("rows")->int_value(), 40);
  EXPECT_EQ(created.Find("data_epoch")->int_value(), 1);

  // Creating the same name again is an error; built-ins are reserved too.
  EXPECT_FALSE(IsOk(Call(fd, create)));

  // The created table recommends like a built-in (predicate defaulted
  // from create time).
  JsonValue recommend = Request("recommend");
  recommend.Set("dataset", JsonValue::String("mini"));
  recommend.Set("k", JsonValue::Int(2));
  JsonValue first = Call(fd, recommend);
  ASSERT_TRUE(IsOk(first)) << first.Write();
  ASSERT_EQ(first.Find("views")->array().size(), 2u);

  // Append new rows: the response reports the patched base histograms —
  // the recommend above warmed them, so delta merges must have fired.
  JsonValue append = Request("append");
  append.Set("table", JsonValue::String("mini"));
  append.Set("csv", JsonValue::String(SmallCsv(40, 60)));
  JsonValue appended = Call(fd, append);
  ASSERT_TRUE(IsOk(appended)) << appended.Write();
  EXPECT_EQ(appended.Find("rows_appended")->int_value(), 20);
  EXPECT_EQ(appended.Find("rows_total")->int_value(), 60);
  EXPECT_EQ(appended.Find("data_epoch")->int_value(), 2);
  EXPECT_GT(appended.Find("delta_merges")->int_value(), 0);
  // O(new rows): the patch scanned only appended rows (once per side).
  EXPECT_LE(appended.Find("ingest_rows")->int_value(), 2 * 20);

  // Post-append recommend answers over all 60 rows and must equal a
  // from-scratch load of the same 60 rows on a second server.
  JsonValue incremental = Call(fd, recommend);
  ASSERT_TRUE(IsOk(incremental)) << incremental.Write();
  {
    ServerOptions options;
    options.port = 0;
    MuvedServer fresh(options);
    ASSERT_TRUE(fresh.Start().ok());
    auto fd2_result = DialLocal(fresh.port());
    ASSERT_TRUE(fd2_result.ok());
    const int fd2 = *fd2_result;
    JsonValue create2 = create;
    create2.Set("csv", JsonValue::String(SmallCsv(0, 60)));
    ASSERT_TRUE(IsOk(Call(fd2, create2)));
    JsonValue reloaded = Call(fd2, recommend);
    ASSERT_TRUE(IsOk(reloaded)) << reloaded.Write();
    EXPECT_EQ(incremental.Find("views")->Write(),
              reloaded.Find("views")->Write());
    ::close(fd2);
    fresh.Stop();
  }

  // Stats surfaces the ingest counters and per-table residency.
  JsonValue stats = Call(fd, Request("stats"));
  ASSERT_TRUE(IsOk(stats)) << stats.Write();
  const JsonValue* ingest = stats.Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_EQ(ingest->Find("appends")->int_value(), 1);
  EXPECT_EQ(ingest->Find("rows_ingested")->int_value(), 20);
  EXPECT_GT(ingest->Find("delta_merges")->int_value(), 0);
  const JsonValue* tables = stats.Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_NE(tables->Find("mini"), nullptr);
  EXPECT_EQ(tables->Find("mini")->Find("rows")->int_value(), 60);
  EXPECT_GT(tables->Find("mini")->Find("resident_bytes")->int_value(), 0);
  const JsonValue* memory = stats.Find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_GT(memory->Find("peak_rss_bytes")->int_value(), 0);
  EXPECT_GT(memory->Find("tables_resident_bytes")->int_value(), 0);

  // Drop: the name disappears and recommends over it turn NotFound.
  JsonValue drop = Request("drop");
  drop.Set("table", JsonValue::String("mini"));
  ASSERT_TRUE(IsOk(Call(fd, drop)));
  JsonValue gone = Call(fd, recommend);
  EXPECT_FALSE(IsOk(gone));
  EXPECT_EQ(ErrorCode(gone), "not_found");
  EXPECT_FALSE(IsOk(Call(fd, drop)));  // double drop

  ::close(fd);
}

TEST_F(MuvedIntegrationTest, PredicateFirstSeenAfterAppendMatchesReload) {
  // The comparison side a predicate first reads after an append is the
  // one the append patched.  Over an integer measure the patch is exact,
  // so the answer equals a cold reload's byte for byte, apart from the
  // build counters — and the only rows built are the target's.
  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("mini"));
  create.Set("csv", JsonValue::String(SmallCsv(0, 40)));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("day >= 2"));
  JsonValue recommend = Request("recommend");
  recommend.Set("dataset", JsonValue::String("mini"));
  recommend.Set("k", JsonValue::Int(2));
  recommend.Set("probe_order", JsonValue::String("deviation-first"));
  JsonValue fresh_predicate = recommend;
  fresh_predicate.Set("predicate", JsonValue::String("day >= 3"));

  StartServer();
  const int fd = Dial();
  ASSERT_TRUE(IsOk(Call(fd, create)));
  ASSERT_TRUE(IsOk(Call(fd, recommend)));  // builds the comparison side
  JsonValue append = Request("append");
  append.Set("table", JsonValue::String("mini"));
  append.Set("csv", JsonValue::String(SmallCsv(40, 60)));
  JsonValue appended = Call(fd, append);
  ASSERT_TRUE(IsOk(appended)) << appended.Write();
  EXPECT_GT(appended.Find("delta_merges")->int_value(), 0);
  JsonValue shared = Call(fd, fresh_predicate);
  ASSERT_TRUE(IsOk(shared)) << shared.Write();
  ::close(fd);

  JsonValue reload = create;
  reload.Set("csv", JsonValue::String(SmallCsv(0, 60)));
  const JsonValue reloaded = ColdAnswer(fresh_predicate, &reload);
  ASSERT_TRUE(IsOk(reloaded)) << reloaded.Write();

  ExpectSameAnswer(shared, reloaded);
  // day >= 3 holds for rows 30..59: one target pass, no comparison pass.
  EXPECT_EQ(shared.Find("stats")->Find("build_rows_scanned")->int_value(),
            30);
  EXPECT_EQ(
      reloaded.Find("stats")->Find("build_rows_scanned")->int_value(),
      30 + 60);
}

// ---------------------------------------------------------------------------
// Score memo (DESIGN.md §13): a registry entry's (D, A) outlive requests.

// One recommend frame of the weights x k x scheme sweeps below.
JsonValue SweepRecommend(const char* dataset, const char* scheme,
                         const double (&weights)[3], int64_t k) {
  JsonValue r = JsonValue::Object();
  r.Set("op", JsonValue::String("recommend"));
  r.Set("dataset", JsonValue::String(dataset));
  r.Set("scheme", JsonValue::String(scheme));
  r.Set("k", JsonValue::Int(k));
  JsonValue w = JsonValue::Array();
  for (const double weight : weights) w.Append(JsonValue::Double(weight));
  r.Set("weights", std::move(w));
  // A pinned probe order keeps the search counters deterministic.
  r.Set("probe_order", JsonValue::String("deviation-first"));
  return r;
}

constexpr const char* kSchemes[] = {"linear-linear", "hc-linear",
                                    "muve-linear", "muve-muve"};
constexpr double kSweepWeights[][3] = {{0.8, 0.1, 0.1}, {0.2, 0.6, 0.2}};

TEST_F(MuvedIntegrationTest, ScoreMemoAnswersEqualColdServers) {
  // The long-lived-vs-cold differential on one NBA predicate: every
  // frame of a weights x k x scheme sweep gets the views a cold server
  // gives it, bit for bit, and the same search counters; from the second
  // request on, the memo answers probes an earlier request ran.
  StartServer();
  const int fd = Dial();
  int requests = 0;
  for (const auto& weights : kSweepWeights) {
    for (const int64_t k : {1, 5}) {
      for (const char* scheme : kSchemes) {
        JsonValue request = SweepRecommend("nba", scheme, weights, k);
        request.Set("predicate", JsonValue::String("Age >= 30 AND MP > 500"));
        const JsonValue shared = Call(fd, request);
        ASSERT_TRUE(IsOk(shared)) << shared.Write();
        const JsonValue cold = ColdAnswer(request);
        ASSERT_TRUE(IsOk(cold)) << cold.Write();
        ExpectSameAnswer(shared, cold, /*memoized=*/true);
        EXPECT_EQ(StatOf(shared, "candidates_considered"),
                  StatOf(cold, "candidates_considered"));
        if (requests++ > 0) {
          EXPECT_GT(StatOf(shared, "memo_hits"), 0) << request.Write();
        }
      }
    }
  }
  const JsonValue stats = Call(fd, Request("stats"));
  const JsonValue* memo = stats.Find("score_memo");
  ASSERT_NE(memo, nullptr) << stats.Write();
  EXPECT_EQ(memo->Find("entries")->int_value(), 1);
  EXPECT_GT(memo->Find("bytes")->int_value(), 0);
  EXPECT_GT(memo->Find("hits")->int_value(), 0);
  EXPECT_GT(memo->Find("fills")->int_value(), 0);
  const JsonValue* base = stats.Find("base_cache");
  EXPECT_LE(base->Find("bytes")->int_value() + memo->Find("bytes")->int_value(),
            base->Find("max_bytes")->int_value());
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, AppendRetiresTheScoreMemoAndMatchesReload) {
  // An append retires the entry's memo with the entry: the first
  // recommend after it probes afresh, and it and the next one (which
  // reads the new memo) equal a cold reload's answers.
  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("mini"));
  create.Set("csv", JsonValue::String(SmallCsv(0, 40)));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("day >= 2"));
  const JsonValue first =
      SweepRecommend("mini", "linear-linear", kSweepWeights[0], 2);
  const JsonValue second =
      SweepRecommend("mini", "muve-muve", kSweepWeights[1], 1);
  auto memo_stats = [&](int fd) {
    const JsonValue stats = Call(fd, Request("stats"));
    const JsonValue* memo = stats.Find("score_memo");
    EXPECT_NE(memo, nullptr) << stats.Write();
    return memo != nullptr ? *memo : JsonValue::Object();
  };

  StartServer();
  const int fd = Dial();
  ASSERT_TRUE(IsOk(Call(fd, create)));
  ASSERT_TRUE(IsOk(Call(fd, first)));
  EXPECT_GT(StatOf(Call(fd, second), "memo_hits"), 0);
  JsonValue memo = memo_stats(fd);
  EXPECT_EQ(memo.Find("entries")->int_value(), 1);
  EXPECT_GT(memo.Find("bytes")->int_value(), 0);

  JsonValue append = Request("append");
  append.Set("table", JsonValue::String("mini"));
  append.Set("csv", JsonValue::String(SmallCsv(40, 60)));
  ASSERT_TRUE(IsOk(Call(fd, append)));
  memo = memo_stats(fd);
  EXPECT_EQ(memo.Find("entries")->int_value(), 0);
  EXPECT_EQ(memo.Find("bytes")->int_value(), 0);

  const JsonValue after_first = Call(fd, first);
  EXPECT_EQ(StatOf(after_first, "memo_hits"), 0);
  const JsonValue after_second = Call(fd, second);
  EXPECT_GT(StatOf(after_second, "memo_hits"), 0);
  ::close(fd);

  JsonValue reload = create;
  reload.Set("csv", JsonValue::String(SmallCsv(0, 60)));
  ExpectSameAnswer(after_first, ColdAnswer(first, &reload));
  ExpectSameAnswer(after_second, ColdAnswer(second, &reload),
                   /*memoized=*/true);
}

TEST_F(MuvedIntegrationTest, FourSessionsOnFourSchemesFillOneMemo) {
  // Four sessions, one scheme each, fill the toy entry's memo at once
  // (this binary is TSan-labelled); every answer equals a cold
  // server's views.
  std::vector<std::vector<JsonValue>> frames(std::size(kSchemes));
  std::vector<std::vector<std::string>> cold_views(std::size(kSchemes));
  for (size_t s = 0; s < frames.size(); ++s) {
    for (const auto& weights : kSweepWeights) {
      for (const int64_t k : {1, 3}) {
        frames[s].push_back(SweepRecommend("toy", kSchemes[s], weights, k));
        const JsonValue cold = ColdAnswer(frames[s].back());
        ASSERT_TRUE(IsOk(cold)) << cold.Write();
        cold_views[s].push_back(cold.Find("views")->Write());
      }
    }
  }
  StartServer();
  std::vector<std::vector<std::string>> views(frames.size());
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < frames.size(); ++s) {
    sessions.emplace_back([&, s] {
      auto fd = DialLocal(server_->port());
      ASSERT_TRUE(fd.ok());
      for (const JsonValue& frame : frames[s]) {
        auto response = RoundTrip(*fd, frame);
        ASSERT_TRUE(response.ok() && IsOk(*response));
        views[s].push_back(response->Find("views")->Write());
      }
      ::close(*fd);
    });
  }
  for (std::thread& session : sessions) session.join();
  for (size_t s = 0; s < frames.size(); ++s) {
    EXPECT_EQ(views[s], cold_views[s]) << kSchemes[s];
  }
  const int fd = Dial();
  const JsonValue stats = Call(fd, Request("stats"));
  ::close(fd);
  const JsonValue* memo = stats.Find("score_memo");
  ASSERT_NE(memo, nullptr) << stats.Write();
  EXPECT_EQ(memo->Find("entries")->int_value(), 1);
  EXPECT_GT(memo->Find("hits")->int_value(), 0);
  EXPECT_GT(memo->Find("fills")->int_value(), 0);
}

TEST_F(MuvedIntegrationTest, CreateValidatesInputs) {
  StartServer();
  const int fd = Dial();

  // Missing csv.
  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("t"));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  create.Set("measures", dims);
  JsonValue response = Call(fd, create);
  EXPECT_FALSE(IsOk(response));

  // String column named as a dimension.
  create.Set("csv", JsonValue::String("x,m\nred,1\nblue,2\n"));
  response = Call(fd, create);
  EXPECT_FALSE(IsOk(response));
  EXPECT_NE(ErrorMessage(response).find("string column"), std::string::npos);

  // Bad predicate syntax fails at create time, not first recommend.
  create.Set("csv", JsonValue::String("x,m\n1,2\n3,4\n"));
  create.Set("predicate", JsonValue::String("day >=>= 2"));
  response = Call(fd, create);
  EXPECT_FALSE(IsOk(response));

  ::close(fd);
}

// The default predicate binds against the parsed table at create time:
// an unknown column fails `create` itself and registers no table.
TEST_F(MuvedIntegrationTest, CreateBindsItsDefaultPredicate) {
  StartServer();
  const int fd = Dial();
  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("t"));
  create.Set("csv", JsonValue::String("x,m\n1,2\n3,4\n"));
  JsonValue cols = JsonValue::Array();
  cols.Append(JsonValue::String("x"));
  create.Set("dims", cols);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("nope = 1"));
  JsonValue response = Call(fd, create);
  EXPECT_EQ(ErrorCode(response), "not_found") << response.Write();
  EXPECT_NE(ErrorMessage(response).find("nope"), std::string::npos)
      << response.Write();

  JsonValue use = Request("use");
  use.Set("dataset", JsonValue::String("t"));
  response = Call(fd, use);
  EXPECT_EQ(ErrorCode(response), "not_found") << response.Write();

  // The same table with a predicate over its own columns is created.
  create.Set("predicate", JsonValue::String("x >= 3"));
  response = Call(fd, create);
  EXPECT_TRUE(IsOk(response)) << response.Write();
  ::close(fd);
}

// stats.ingest splits ingest time three ways — CSV parsing (create and
// append), catalog publish and delta patching (append) — cumulatively,
// and counts the rows appends moved into new tail stores.
TEST_F(MuvedIntegrationTest, StatsOpReportsIngestSplit) {
  StartServer();
  const int fd = Dial();
  auto ingest_ms = [&](const char* field) {
    JsonValue stats = Call(fd, Request("stats"));
    EXPECT_TRUE(IsOk(stats)) << stats.Write();
    const JsonValue* ingest = stats.Find("ingest");
    EXPECT_NE(ingest, nullptr);
    const JsonValue* value = ingest == nullptr ? nullptr : ingest->Find(field);
    EXPECT_NE(value, nullptr) << field;
    EXPECT_TRUE(value == nullptr || value->is_number()) << field;
    return value == nullptr ? -1.0 : value->number_value();
  };
  EXPECT_EQ(ingest_ms("csv_parse_ms"), 0.0);
  EXPECT_EQ(ingest_ms("catalog_append_ms"), 0.0);
  EXPECT_EQ(ingest_ms("delta_ms"), 0.0);

  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("t"));
  create.Set("csv", JsonValue::String(SmallCsv(0, 400)));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("day >= 10"));
  ASSERT_TRUE(IsOk(Call(fd, create)));
  const double parsed_at_create = ingest_ms("csv_parse_ms");
  EXPECT_GT(parsed_at_create, 0.0);
  EXPECT_EQ(ingest_ms("catalog_append_ms"), 0.0);

  // A recommend builds a store, so the append below has one to patch.
  JsonValue recommend = Request("recommend");
  recommend.Set("dataset", JsonValue::String("t"));
  recommend.Set("k", JsonValue::Int(2));
  JsonValue recommended = Call(fd, recommend);
  ASSERT_TRUE(IsOk(recommended)) << recommended.Write();
  JsonValue append = Request("append");
  append.Set("table", JsonValue::String("t"));
  append.Set("csv", JsonValue::String(SmallCsv(400, 600)));
  JsonValue appended = Call(fd, append);
  ASSERT_TRUE(IsOk(appended)) << appended.Write();
  ASSERT_GT(appended.Find("delta_merges")->int_value(), 0);
  EXPECT_GT(ingest_ms("csv_parse_ms"), parsed_at_create);
  const double published = ingest_ms("catalog_append_ms");
  const double patched = ingest_ms("delta_ms");
  EXPECT_GT(published, 0.0);
  EXPECT_GT(patched, 0.0);
  // The created table's chunk store has room: the append wrote in place.
  EXPECT_EQ(ingest_ms("rows_copied"), 0.0);

  // A failed append adds nothing.
  append.Set("csv", JsonValue::String("day,x,m\n1,2,oops\n"));
  EXPECT_FALSE(IsOk(Call(fd, append)));
  EXPECT_EQ(ingest_ms("catalog_append_ms"), published);
  EXPECT_EQ(ingest_ms("delta_ms"), patched);
  ::close(fd);
}

TEST_F(MuvedIntegrationTest, AppendEnforcesTableSchema) {
  StartServer();
  const int fd = Dial();

  JsonValue create = Request("create");
  create.Set("table", JsonValue::String("t"));
  create.Set("csv", JsonValue::String(SmallCsv(0, 20)));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("day >= 1"));
  ASSERT_TRUE(IsOk(Call(fd, create)));

  // Unknown table.
  JsonValue append = Request("append");
  append.Set("table", JsonValue::String("nope"));
  append.Set("csv", JsonValue::String(SmallCsv(0, 5)));
  JsonValue response = Call(fd, append);
  EXPECT_FALSE(IsOk(response));
  EXPECT_EQ(ErrorCode(response), "not_found");

  // Wrong header: the table's schema is enforced, not re-inferred.
  append.Set("table", JsonValue::String("t"));
  append.Set("csv", JsonValue::String("wrong,header,names\n1,2,3\n"));
  EXPECT_FALSE(IsOk(Call(fd, append)));

  // Empty batch.
  append.Set("csv", JsonValue::String("day,x,m\n"));
  EXPECT_FALSE(IsOk(Call(fd, append)));

  // The failed appends left the table untouched.
  JsonValue stats = Call(fd, Request("stats"));
  EXPECT_EQ(stats.Find("tables")->Find("t")->Find("rows")->int_value(), 20);
  ::close(fd);
}

}  // namespace
}  // namespace muve::server
