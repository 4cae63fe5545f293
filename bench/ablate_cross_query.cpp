// Cross-request shared execution ablation (DESIGN.md §13).
//
// Replays a duplicate-heavy workload — a small pool of fixed recommend
// frames, each issued many times, the shape a dashboard of analysts
// produces — against in-process muved servers on loopback ephemeral
// ports, twice: once through one long-lived server (registry, base-
// histogram stores and result cache all reused across requests), and
// once through a cold server per frame, so nothing is reused.  Reports
// per-request latency plus the servers' own sharing counters.  The
// interesting numbers: the result-cache hit rate on the duplicate
// workload and the mean-latency win of sharing-on over sharing-off.
//
//   $ ablate_cross_query [--repeat=N] [--smoke] [--json-out=PATH]
//
// Differential guarantee (pinned by tests/storage/cross_query_cache_test
// and tests/server/muved_integration_test): the two runs' response
// payloads are byte-identical frame for frame, apart from the build-work
// counters in `stats` — the long-lived server shares one comparison side
// among predicates, so it truthfully reports no more build work than a
// cold server.  This bench re-checks that on the side and aborts on any
// divergence, so a regression cannot hide behind a speedup.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "server/json.h"
#include "server/muved_server.h"
#include "server/protocol.h"

namespace {

using muve::server::JsonValue;

struct Frame {
  const char* dataset;
  const char* predicate;  // nullptr = built-in
  const char* scheme;
  int64_t k;
  double weights[3];
};

JsonValue FrameRequest(const Frame& frame) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::String("recommend"));
  request.Set("dataset", JsonValue::String(frame.dataset));
  if (frame.predicate != nullptr) {
    request.Set("predicate", JsonValue::String(frame.predicate));
  }
  request.Set("scheme", JsonValue::String(frame.scheme));
  request.Set("k", JsonValue::Int(frame.k));
  // Deterministic probe order: the default timing-driven priority rule
  // jitters the reported stats run to run, which would fail the on/off
  // payload diff for reasons that have nothing to do with sharing.
  request.Set("probe_order", JsonValue::String("deviation-first"));
  JsonValue weights = JsonValue::Array();
  weights.Append(JsonValue::Double(frame.weights[0]));
  weights.Append(JsonValue::Double(frame.weights[1]));
  weights.Append(JsonValue::Double(frame.weights[2]));
  request.Set("weights", std::move(weights));
  return request;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunStats {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  int64_t requests = 0;
  int64_t result_cache_hits = 0;
  int64_t base_hits = 0;
  int64_t recommends_executed = 0;
  std::vector<JsonValue> payloads;  // one response per request
};

// The build-work counters of a recommend's `stats`.
constexpr const char* kBuildCounters[] = {
    "rows_scanned", "build_rows_scanned", "base_builds",
    "base_cache_hits", "fused_builds", "fused_coalesced"};

// True when `shared` equals `cold` byte for byte apart from the build
// counters, each of which is at most the cold server's.
bool SameAnswer(const JsonValue& shared, const JsonValue& cold) {
  const JsonValue* shared_stats = shared.Find("stats");
  const JsonValue* cold_stats = cold.Find("stats");
  if (shared_stats == nullptr || cold_stats == nullptr) {
    return shared.Write() == cold.Write();
  }
  JsonValue shared_rest = *shared_stats;
  JsonValue cold_rest = *cold_stats;
  for (const char* counter : kBuildCounters) {
    const JsonValue* a = shared_stats->Find(counter);
    const JsonValue* b = cold_stats->Find(counter);
    if (a == nullptr || b == nullptr || a->int_value() > b->int_value()) {
      return false;
    }
    shared_rest.Set(counter, JsonValue::Int(0));
    cold_rest.Set(counter, JsonValue::Int(0));
  }
  JsonValue shared_masked = shared;
  JsonValue cold_masked = cold;
  shared_masked.Set("stats", std::move(shared_rest));
  cold_masked.Set("stats", std::move(cold_rest));
  return shared_masked.Write() == cold_masked.Write();
}

int64_t IntField(const JsonValue& obj, const char* name) {
  const JsonValue* v = obj.Find(name);
  return (v != nullptr && v->is_int()) ? v->int_value() : 0;
}

int64_t NestedIntField(const JsonValue& obj, const char* outer,
                       const char* name) {
  const JsonValue* o = obj.Find(outer);
  return (o != nullptr && o->is_object()) ? IntField(*o, name) : 0;
}

// Sums one server's sharing counters into `run`.
void AddServerStats(int fd, RunStats* run) {
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("op", JsonValue::String("stats"));
  auto stats = muve::server::RoundTrip(fd, stats_request);
  if (!stats.ok()) return;
  run->result_cache_hits += IntField(*stats, "result_cache_hits");
  run->recommends_executed += IntField(*stats, "recommends_executed");
  run->base_hits += NestedIntField(*stats, "base_cache", "hits");
}

// An in-process muved on an ephemeral port, with one connection to it.
struct LiveServer {
  LiveServer() : server(muve::server::ServerOptions{}) {
    if (auto st = server.Start(); !st.ok()) {
      std::cerr << "ablate_cross_query: " << st.ToString() << "\n";
      std::exit(1);
    }
    auto dialed = muve::server::DialLocal(server.port());
    if (!dialed.ok()) {
      std::cerr << "ablate_cross_query: " << dialed.status().ToString()
                << "\n";
      std::exit(1);
    }
    fd = *dialed;
  }
  ~LiveServer() {
    ::close(fd);
    server.Stop();
  }
  muve::server::MuvedServer server;
  int fd = -1;
};

// Sharing on: every frame goes to one long-lived server.  Sharing off:
// every frame gets a cold server of its own.
RunStats RunWorkload(bool sharing, const std::vector<Frame>& frames,
                     int rounds) {
  RunStats run;
  std::vector<double> latencies;
  std::unique_ptr<LiveServer> shared;
  if (sharing) shared = std::make_unique<LiveServer>();
  for (int round = 0; round < rounds; ++round) {
    for (const Frame& frame : frames) {
      std::unique_ptr<LiveServer> cold;
      if (!sharing) cold = std::make_unique<LiveServer>();
      LiveServer& live = sharing ? *shared : *cold;
      const JsonValue request = FrameRequest(frame);
      const double start = NowMs();
      auto response = muve::server::RoundTrip(live.fd, request);
      latencies.push_back(NowMs() - start);
      const JsonValue* ok = response.ok() ? response->Find("ok") : nullptr;
      if (!response.ok() || ok == nullptr || !ok->bool_value()) {
        std::cerr << "ablate_cross_query: request failed\n";
        std::exit(1);
      }
      run.payloads.push_back(*response);
      if (!sharing) AddServerStats(live.fd, &run);
    }
  }
  if (sharing) AddServerStats(shared->fd, &run);
  run.requests = static_cast<int64_t>(latencies.size());

  for (double v : latencies) run.mean_ms += v;
  if (!latencies.empty()) {
    run.mean_ms /= static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    run.p50_ms = latencies[latencies.size() / 2];
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& options = muve::bench::InitBench(&argc, argv);

  // The duplicate pool: one hot NBA frame spelled with its conjunction
  // both ways (exercising predicate canonicalization), a predicate-free
  // NBA frame, and a toy frame.  Every round replays the whole pool.
  std::vector<Frame> frames = {
      {"nba", nullptr, "muve-muve", 5, {0.8, 0.1, 0.1}},
      {"nba", "Age >= 30 AND MP > 500", "muve-muve", 5, {0.8, 0.1, 0.1}},
      {"nba", "MP > 500 AND Age >= 30", "muve-muve", 5, {0.8, 0.1, 0.1}},
      {"toy", nullptr, "muve-linear", 3, {0.4, 0.3, 0.3}},
  };
  int rounds = options.smoke ? 3 : 10;
  if (options.repeat > 0) rounds = options.repeat;

  const RunStats on = RunWorkload(/*sharing=*/true, frames, rounds);
  const RunStats off = RunWorkload(/*sharing=*/false, frames, rounds);

  // Differential check on the side: sharing must not change a response
  // byte outside the build counters.  (The full proof lives in the test
  // layer; failing here means the bench numbers are meaningless.)
  bool same = on.payloads.size() == off.payloads.size();
  for (size_t i = 0; same && i < on.payloads.size(); ++i) {
    same = SameAnswer(on.payloads[i], off.payloads[i]);
  }
  if (!same) {
    std::cerr << "ablate_cross_query: sharing changed response payloads — "
                 "differential violation\n";
    return 1;
  }

  const int64_t answered = on.recommends_executed + on.result_cache_hits;
  const double hit_rate =
      answered > 0 ? static_cast<double>(on.result_cache_hits) /
                         static_cast<double>(answered)
                   : 0.0;
  const double speedup = on.mean_ms > 0.0 ? off.mean_ms / on.mean_ms : 0.0;

  muve::bench::TablePrinter table(
      {"config", "requests", "mean_ms", "p50_ms", "result_hits",
       "base_hits"});
  table.AddRow({"sharing-on", std::to_string(on.requests),
                muve::bench::Ms(on.mean_ms), muve::bench::Ms(on.p50_ms),
                std::to_string(on.result_cache_hits),
                std::to_string(on.base_hits)});
  table.AddRow({"sharing-off", std::to_string(off.requests),
                muve::bench::Ms(off.mean_ms), muve::bench::Ms(off.p50_ms),
                std::to_string(off.result_cache_hits),
                std::to_string(off.base_hits)});
  table.Print("Cross-request shared execution (duplicate-heavy workload)");
  std::cout << "result-cache hit rate: " << muve::bench::Pct(hit_rate)
            << "   mean-latency speedup: " << muve::bench::Ms(speedup)
            << "x\n";

  muve::bench::RecordJsonResult(
      "cross-query-sharing",
      {},
      {{"rounds", static_cast<double>(rounds)},
       {"requests", static_cast<double>(on.requests)},
       {"on_mean_ms", on.mean_ms},
       {"on_p50_ms", on.p50_ms},
       {"off_mean_ms", off.mean_ms},
       {"off_p50_ms", off.p50_ms},
       {"result_cache_hits", static_cast<double>(on.result_cache_hits)},
       {"base_hits", static_cast<double>(on.base_hits)},
       {"hit_rate", hit_rate},
       {"mean_speedup", speedup}});
  return 0;
}
