// muve_loadgen — concurrent-workload driver for muved.
//
//   $ muved --port=0            # prints the bound port
//   $ muve_loadgen --port=PORT --sessions=8 --requests=25 \
//         --json-out=BENCH_server.json
//
// Opens `--sessions` concurrent connections and replays a mixed
// recommend workload on each — dataset, predicate, alpha weights, k,
// scheme, and deadline all vary per request, drawn from a per-session
// mt19937_64 stream so the workload is reproducible from --seed.  Every
// request's wall latency is recorded client-side; the merged
// distribution (p50/p95/p99/mean/max), error/degraded counts, and
// aggregate throughput are printed and, with --json-out, written in the
// shared bench-artifact schema as BENCH_server.json.
//
// Modes:
//   --smoke             tiny workload (CI): fewer sessions and requests
//   --shutdown          send {"op":"shutdown"} after the run (CI smoke
//                       uses this to prove a clean drain)
//   --duplicates=P      duplicate-heavy workload: P percent of requests
//                       (0..100) are drawn from a small fixed pool of
//                       cacheable frames (no deadline, no timings) that
//                       every session shares — the shape that exercises
//                       the server's cross-request sharing layers
//   --assert-sharing    after the run, query {"op":"stats"} and exit 1
//                       unless the server reports at least one sharing
//                       hit (result cache, shared base-histogram store
//                       or score memo) — the CI smoke proof that sharing
//                       actually engaged
//   --invariance-out=F  instead of the load run, replay one FIXED
//                       deterministic workload on a single session and
//                       dump every raw response payload to F, one per
//                       line.  Running it twice — once under
//                       MUVE_SIMD=scalar, once native — and diffing the
//                       two files proves recommendation payloads are
//                       byte-identical across the wire regardless of
//                       dispatch level.
//   --retries=N         retry budget per request (default 4 attempts
//                       total; 1 disables retrying).  Overloaded
//                       (`unavailable`) responses and transport errors
//                       are retried with jittered exponential backoff
//                       honoring the server's retry_after_ms hint.
//   --chaos=N           spawn N hostile threads ALONGSIDE the normal
//                       sessions, each replaying socket-layer abuse
//                       drawn from its seed: torn frames, oversized
//                       length prefixes, mid-frame stalls (slowloris),
//                       SO_LINGER-0 RST closes, never-reading writers,
//                       and slow readers.  Chaos outcomes are never
//                       counted as failures — the point is that the
//                       WELL-BEHAVED sessions still succeed around them.
//
// Exit codes: 0 all requests answered ok (degraded-but-ok counts as
// ok — that is the anytime contract; responses shed with `unavailable`
// after the retry budget also do NOT fail the run — shedding under
// overload is the server doing its job), 1 any unrecovered
// transport/protocol failure or server error, 2 bad flags.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "common/parse.h"
#include "common/status.h"
#include "common/string_util.h"
#include "harness.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"

namespace {

using muve::common::Status;
using muve::server::JsonValue;

struct Flags {
  int port = 7171;
  int sessions = 8;
  int requests = 25;
  uint64_t seed = 42;
  int duplicates = 0;  // percent of requests drawn from the hot pool
  int retries = 4;     // attempts per request (1 = no retrying)
  int chaos = 0;       // hostile threads alongside the workload
  bool assert_sharing = false;
  bool smoke = false;
  bool do_shutdown = false;
  std::string json_out;
  std::string invariance_out;
};

Status ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto has = [&arg](const std::string& name) {
      return muve::common::StartsWith(arg, name);
    };
    auto value_of = [&arg](const std::string& name) {
      return arg.substr(name.size());
    };
    if (has("--port=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->port, muve::common::ParseFlagInt64(
                           "--port", value_of("--port="), 1, 65535));
    } else if (has("--sessions=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->sessions, muve::common::ParseFlagInt64(
                               "--sessions", value_of("--sessions="), 1, 256));
    } else if (has("--requests=")) {
      MUVE_ASSIGN_OR_RETURN(flags->requests,
                            muve::common::ParseFlagInt64(
                                "--requests", value_of("--requests="), 1,
                                1000000));
    } else if (has("--seed=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->seed,
          muve::common::ParseFlagInt64("--seed", value_of("--seed="), 0,
                                       std::numeric_limits<int64_t>::max()));
    } else if (has("--duplicates=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->duplicates,
          muve::common::ParseFlagInt64("--duplicates",
                                       value_of("--duplicates="), 0, 100));
    } else if (has("--retries=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->retries, muve::common::ParseFlagInt64(
                              "--retries", value_of("--retries="), 1, 100));
    } else if (has("--chaos=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->chaos, muve::common::ParseFlagInt64(
                            "--chaos", value_of("--chaos="), 0, 256));
    } else if (arg == "--chaos") {
      flags->chaos = 4;
    } else if (arg == "--assert-sharing") {
      flags->assert_sharing = true;
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (arg == "--shutdown") {
      flags->do_shutdown = true;
    } else if (arg == "--json-out") {
      flags->json_out = "BENCH_server.json";
    } else if (has("--json-out=")) {
      flags->json_out = value_of("--json-out=");
    } else if (has("--invariance-out=")) {
      flags->invariance_out = value_of("--invariance-out=");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (flags->smoke) {
    flags->sessions = std::min(flags->sessions, 8);
    flags->requests = std::min(flags->requests, 4);
  }
  return Status::OK();
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

JsonValue MakeRequest(const std::string& op) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::String(op));
  return request;
}

// One frame out, one frame back; false on any transport/protocol error.
bool Send(int fd, const JsonValue& request, JsonValue* response) {
  auto result = muve::server::RoundTrip(fd, request);
  if (!result.ok()) {
    std::cerr << "loadgen: " << result.status().ToString() << "\n";
    return false;
  }
  *response = std::move(*result);
  return true;
}

bool ResponseOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

// ---------------------------------------------------------------------------
// Mixed-workload session.
// ---------------------------------------------------------------------------

// Outcome taxonomy, one bucket per request's FINAL answer (plus the
// retry-layer counters underneath).  `sheds` — requests still answered
// `unavailable` after the retry budget — are deliberately separate from
// both `errors` and `transport_failures`: a shed is the server keeping
// its overload promise, not the transport breaking, and it must not fail
// a load run on its own.
struct SessionResult {
  std::vector<double> latencies_ms;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t errors = 0;              // server answered ok:false (non-shed)
  int64_t sheds = 0;               // final answer was `unavailable`
  int64_t transport_failures = 0;  // Call() failed even after retries
  muve::server::RetryStats retry;  // what the retry layer absorbed
};

// The mixed workload: mostly NBA (the acceptance dataset), with toy
// sprinkled in; per-request k / alphas / scheme / deadline / predicate
// all drawn from the session's private RNG stream.
JsonValue DrawRecommend(std::mt19937_64& rng) {
  JsonValue request = MakeRequest("recommend");
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  const bool toy = unit(rng) < 0.125;
  request.Set("dataset", JsonValue::String(toy ? "toy" : "nba"));
  if (!toy && unit(rng) < 0.25) {
    // Predicate churn against the same table: distinct recommenders.
    static const char* kPredicates[] = {"Age >= 30", "MP > 500", "G > 41"};
    request.Set("predicate",
                JsonValue::String(kPredicates[rng() % 3]));
  }

  static const char* kSchemes[] = {"muve-muve", "muve-muve", "muve-linear",
                                   "hc-linear"};
  request.Set("scheme", JsonValue::String(kSchemes[rng() % 4]));

  static const int64_t kKs[] = {1, 3, 5, 10};
  request.Set("k", JsonValue::Int(kKs[rng() % 4]));

  // Random alphas on the simplex corner-to-corner, rounded so the JSON
  // stays short.
  const double d = std::round(unit(rng) * 100.0) / 100.0;
  const double a = std::round(unit(rng) * (1.0 - d) * 100.0) / 100.0;
  const double s = std::max(0.0, std::round((1.0 - d - a) * 100.0) / 100.0);
  JsonValue weights = JsonValue::Array();
  weights.Append(JsonValue::Double(d));
  weights.Append(JsonValue::Double(a));
  weights.Append(JsonValue::Double(s));
  request.Set("weights", std::move(weights));

  // A third of requests run under a tight deadline — mixed deadlines are
  // the acceptance workload, and degraded-but-ok responses must count as
  // successes.
  if (unit(rng) < 0.34) {
    static const double kDeadlines[] = {1.0, 2.0, 5.0, 10.0};
    request.Set("deadline_ms", JsonValue::Double(kDeadlines[rng() % 4]));
  }
  return request;
}

// The hot pool for duplicate-heavy runs: a handful of FIXED, fully
// cacheable frames (no deadline, no timings) that every session shares.
// Requests drawn here are the ones the server's cross-request layers can
// answer from cache; the pool deliberately spells one predicate two
// operand-permuted ways to exercise canonicalization end to end.
JsonValue DrawHotRecommend(std::mt19937_64& rng) {
  struct HotFrame {
    const char* dataset;
    const char* predicate;  // nullptr = the dataset's built-in predicate
    const char* scheme;
    int64_t k;
    double weights[3];
  };
  static const HotFrame kPool[] = {
      {"nba", nullptr, "muve-muve", 5, {0.8, 0.1, 0.1}},
      {"nba", "Age >= 30 AND MP > 500", "muve-muve", 5, {0.8, 0.1, 0.1}},
      {"nba", "MP > 500 AND Age >= 30", "muve-muve", 5, {0.8, 0.1, 0.1}},
      {"toy", nullptr, "muve-linear", 3, {0.4, 0.3, 0.3}},
  };
  const HotFrame& frame = kPool[rng() % (sizeof(kPool) / sizeof(kPool[0]))];
  JsonValue request = MakeRequest("recommend");
  request.Set("dataset", JsonValue::String(frame.dataset));
  if (frame.predicate != nullptr) {
    request.Set("predicate", JsonValue::String(frame.predicate));
  }
  request.Set("scheme", JsonValue::String(frame.scheme));
  request.Set("k", JsonValue::Int(frame.k));
  JsonValue weights = JsonValue::Array();
  weights.Append(JsonValue::Double(frame.weights[0]));
  weights.Append(JsonValue::Double(frame.weights[1]));
  weights.Append(JsonValue::Double(frame.weights[2]));
  request.Set("weights", std::move(weights));
  return request;
}

SessionResult RunSession(int port, int requests, uint64_t seed,
                         int duplicates_pct, int retries) {
  SessionResult result;
  muve::server::RetryPolicy policy;
  policy.max_attempts = retries;
  policy.jitter_seed = seed ^ 0x9e3779b97f4a7c15ULL;
  muve::server::RetryingClient client(port, policy);
  std::mt19937_64 rng(seed);
  // Pin the session's default dataset so requests that omit "dataset"
  // would still be valid; also warms the registry.
  JsonValue use = MakeRequest("use");
  use.Set("dataset", JsonValue::String("nba"));
  {
    auto response = client.Call(use);
    if (!response.ok()) {
      std::cerr << "loadgen: " << response.status().ToString() << "\n";
      ++result.transport_failures;
      result.retry = client.stats();
      return result;
    }
    if (muve::server::IsOverloadedResponse(*response)) {
      ++result.sheds;
    } else if (!ResponseOk(*response)) {
      ++result.errors;
    }
  }
  result.latencies_ms.reserve(requests);
  std::uniform_int_distribution<int> pct(0, 99);
  for (int i = 0; i < requests; ++i) {
    const JsonValue request = pct(rng) < duplicates_pct
                                  ? DrawHotRecommend(rng)
                                  : DrawRecommend(rng);
    const double start = NowMs();
    auto response = client.Call(request);
    if (!response.ok()) {
      // Unrecovered transport failure.  The client already redialed and
      // retried; count it and keep going — later requests may succeed on
      // a fresh connection.
      std::cerr << "loadgen: " << response.status().ToString() << "\n";
      ++result.transport_failures;
      continue;
    }
    result.latencies_ms.push_back(NowMs() - start);
    if (ResponseOk(*response)) {
      ++result.ok;
      const JsonValue* degraded = response->Find("degraded");
      if (degraded != nullptr && degraded->is_bool() &&
          degraded->bool_value()) {
        ++result.degraded;
      }
    } else if (muve::server::IsOverloadedResponse(*response)) {
      ++result.sheds;
    } else {
      ++result.errors;
    }
  }
  result.retry = client.stats();
  return result;
}

// ---------------------------------------------------------------------------
// Chaos sessions: socket-layer abuse, never counted as failures.
// ---------------------------------------------------------------------------

// Writes `n` raw bytes best-effort (the peer may close on us mid-write —
// that is part of the game).
void RawWrite(int fd, const void* bytes, size_t n) {
  (void)!::send(fd, bytes, n, MSG_NOSIGNAL);
}

void ChaosTornFrame(int port) {
  auto fd = muve::server::DialLocal(port);
  if (!fd.ok()) return;
  const unsigned char half_header[2] = {0x00, 0x00};
  RawWrite(*fd, half_header, sizeof(half_header));
  ::close(*fd);
}

void ChaosOversizedPrefix(int port) {
  auto fd = muve::server::DialLocal(port);
  if (!fd.ok()) return;
  const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  RawWrite(*fd, header, sizeof(header));
  // The server answers one parse_error frame and closes; drain a little.
  char sink[256];
  (void)!::recv(*fd, sink, sizeof(sink), 0);
  ::close(*fd);
}

void ChaosMidFrameStall(int port, std::mt19937_64& rng) {
  auto fd = muve::server::DialLocal(port);
  if (!fd.ok()) return;
  // A valid header promising 64 bytes, then only half of them, then a
  // stall — the classic slowloris.  The server's frame timeout (when
  // configured) must cut us off; without one the close() ends it.
  const unsigned char header[4] = {0x00, 0x00, 0x00, 0x40};
  RawWrite(*fd, header, sizeof(header));
  char garbage[32];
  std::memset(garbage, '{', sizeof(garbage));
  RawWrite(*fd, garbage, sizeof(garbage));
  std::this_thread::sleep_for(std::chrono::milliseconds(20 + rng() % 80));
  ::close(*fd);
}

void ChaosRstClose(int port) {
  auto fd = muve::server::DialLocal(port);
  if (!fd.ok()) return;
  (void)muve::server::WriteMessage(*fd, MakeRequest("ping"));
  // SO_LINGER(on, 0): close() sends RST instead of FIN, discarding any
  // in-flight response — the abrupt-death shape a crashing client makes.
  struct linger hard = {1, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(*fd);
}

void ChaosNeverReadingWriter(int port, std::mt19937_64& rng) {
  auto fd = muve::server::DialLocal(port);
  if (!fd.ok()) return;
  // Pump requests without ever reading a response, then vanish.  The
  // server's write timeout (when configured) bounds how long a handler
  // can be pinned once the socket buffer fills.
  const int frames = 4 + static_cast<int>(rng() % 8);
  for (int i = 0; i < frames; ++i) {
    if (!muve::server::WriteMessage(*fd, MakeRequest("ping")).ok()) break;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20 + rng() % 80));
  ::close(*fd);
}

void ChaosSlowReader(int port, std::mt19937_64& rng) {
  auto fd = muve::server::DialLocal(port);
  if (!fd.ok()) return;
  if (!muve::server::WriteMessage(*fd, MakeRequest("ping")).ok()) {
    ::close(*fd);
    return;
  }
  // Read the response one byte at a time with pauses, then quit partway.
  char byte;
  const int max_bytes = 8 + static_cast<int>(rng() % 32);
  for (int i = 0; i < max_bytes; ++i) {
    if (::recv(*fd, &byte, 1, 0) <= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng() % 5));
  }
  ::close(*fd);
}

void RunChaosSession(int port, int acts, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < acts; ++i) {
    switch (rng() % 6) {
      case 0: ChaosTornFrame(port); break;
      case 1: ChaosOversizedPrefix(port); break;
      case 2: ChaosMidFrameStall(port, rng); break;
      case 3: ChaosRstClose(port); break;
      case 4: ChaosNeverReadingWriter(port, rng); break;
      case 5: ChaosSlowReader(port, rng); break;
    }
  }
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Dispatch-invariance replay: a FIXED workload, responses dumped raw.
// ---------------------------------------------------------------------------

int RunInvariance(const Flags& flags) {
  auto fd = muve::server::DialLocal(flags.port);
  if (!fd.ok()) {
    std::cerr << "loadgen: " << fd.status().ToString() << "\n";
    return 1;
  }
  std::ofstream out(flags.invariance_out, std::ios::trunc);
  if (!out) {
    std::cerr << "loadgen: cannot write " << flags.invariance_out << "\n";
    ::close(*fd);
    return 1;
  }
  // Deterministic configurations only: deviation-first probe order, no
  // deadline, no timings — the same caveat the CLI golden tests carry.
  static const char* kDatasets[] = {"toy", "nba"};
  static const char* kSchemes[] = {"linear-linear", "hc-linear",
                                   "muve-linear", "muve-muve"};
  static const double kWeights[][3] = {{0.8, 0.1, 0.1}, {0.4, 0.3, 0.3}};
  int lines = 0;
  for (const char* dataset : kDatasets) {
    for (const char* scheme : kSchemes) {
      for (const auto& w : kWeights) {
        JsonValue request = MakeRequest("recommend");
        request.Set("dataset", JsonValue::String(dataset));
        request.Set("scheme", JsonValue::String(scheme));
        request.Set("k", JsonValue::Int(5));
        JsonValue weights = JsonValue::Array();
        weights.Append(JsonValue::Double(w[0]));
        weights.Append(JsonValue::Double(w[1]));
        weights.Append(JsonValue::Double(w[2]));
        request.Set("weights", std::move(weights));
        request.Set("probe_order", JsonValue::String("deviation-first"));
        auto response = muve::server::RoundTrip(*fd, request);
        if (!response.ok()) {
          std::cerr << "loadgen: " << response.status().ToString() << "\n";
          ::close(*fd);
          return 1;
        }
        if (!ResponseOk(*response)) {
          std::cerr << "loadgen: server error on " << dataset << "/" << scheme
                    << ": " << response->Write() << "\n";
          ::close(*fd);
          return 1;
        }
        out << response->Write() << "\n";
        ++lines;
      }
    }
  }
  int rc = 0;
  if (flags.do_shutdown) {
    auto response = muve::server::RoundTrip(*fd, MakeRequest("shutdown"));
    if (!response.ok() || !ResponseOk(*response)) rc = 1;
  }
  ::close(*fd);
  out.close();
  std::cout << "loadgen: wrote " << lines << " deterministic payloads to "
            << flags.invariance_out << "\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (Status st = ParseFlags(argc, argv, &flags); !st.ok()) {
    std::cerr << st.message() << "\n\nSee the header of tools/muve_loadgen.cpp "
              << "for flag documentation.\n";
    return 2;
  }

  if (!flags.invariance_out.empty()) return RunInvariance(flags);

  // Probe the server first: fail fast with a clear message, and record
  // the dispatch level the artifact should carry.
  std::string simd = "unknown";
  {
    auto fd = muve::server::DialLocal(flags.port);
    if (!fd.ok()) {
      std::cerr << "loadgen: no muved at 127.0.0.1:" << flags.port << " ("
                << fd.status().message() << ")\n";
      return 1;
    }
    JsonValue response;
    if (Send(*fd, MakeRequest("ping"), &response) && ResponseOk(response)) {
      const JsonValue* level = response.Find("simd");
      if (level != nullptr && level->is_string()) {
        simd = level->string_value();
      }
    }
    ::close(*fd);
  }

  std::cout << "loadgen: " << flags.sessions << " sessions x "
            << flags.requests << " requests against 127.0.0.1:" << flags.port
            << " (simd=" << simd << ", seed=" << flags.seed << ")\n";

  if (flags.chaos > 0) {
    std::cout << "loadgen: +" << flags.chaos
              << " chaos threads (torn frames, slowloris, RSTs, "
              << "never-reading writers)\n";
  }

  const double wall_start = NowMs();
  std::vector<SessionResult> results(flags.sessions);
  std::vector<std::thread> threads;
  threads.reserve(flags.sessions + flags.chaos);
  for (int s = 0; s < flags.sessions; ++s) {
    threads.emplace_back([&flags, &results, s] {
      results[s] = RunSession(flags.port, flags.requests,
                              flags.seed * 8191 + static_cast<uint64_t>(s),
                              flags.duplicates, flags.retries);
    });
  }
  for (int c = 0; c < flags.chaos; ++c) {
    threads.emplace_back([&flags, c] {
      RunChaosSession(flags.port, flags.requests,
                      flags.seed * 131071 + static_cast<uint64_t>(c));
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = NowMs() - wall_start;

  std::vector<double> latencies;
  int64_t ok = 0, degraded = 0, errors = 0, sheds = 0, transport_failures = 0;
  muve::server::RetryStats retry;
  for (const SessionResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    ok += r.ok;
    degraded += r.degraded;
    errors += r.errors;
    sheds += r.sheds;
    transport_failures += r.transport_failures;
    retry.sheds_seen += r.retry.sheds_seen;
    retry.retries += r.retry.retries;
    retry.transport_errors += r.retry.transport_errors;
    retry.backoff_ms_total += r.retry.backoff_ms_total;
  }
  std::sort(latencies.begin(), latencies.end());
  double mean = 0.0;
  for (double v : latencies) mean += v;
  if (!latencies.empty()) mean /= static_cast<double>(latencies.size());
  const double p50 = Percentile(latencies, 0.50);
  const double p95 = Percentile(latencies, 0.95);
  const double p99 = Percentile(latencies, 0.99);
  const double max = latencies.empty() ? 0.0 : latencies.back();
  const double throughput =
      wall_ms > 0.0 ? static_cast<double>(latencies.size()) / (wall_ms / 1e3)
                    : 0.0;

  std::cout << "loadgen: " << latencies.size() << " requests in "
            << muve::bench::Ms(wall_ms) << " ms  (" << ok << " ok, " << degraded
            << " degraded-but-ok, " << errors << " errors, " << sheds
            << " shed, " << transport_failures << " transport failures)\n"
            << "loadgen: retry layer absorbed " << retry.sheds_seen
            << " sheds and " << retry.transport_errors
            << " transport errors across " << retry.retries << " retries ("
            << retry.backoff_ms_total << " ms backoff)\n"
            << "loadgen: p50=" << muve::bench::Ms(p50)
            << "ms p95=" << muve::bench::Ms(p95)
            << "ms p99=" << muve::bench::Ms(p99)
            << "ms mean=" << muve::bench::Ms(mean)
            << "ms max=" << muve::bench::Ms(max) << "ms  throughput="
            << muve::bench::Ms(throughput) << " req/s\n";

  if (!flags.json_out.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("bench", JsonValue::String("server"));
    doc.Set("git_sha", JsonValue::String(muve::bench::GitShaOrUnknown()));
    JsonValue config = JsonValue::Object();
    config.Set("sessions", JsonValue::Int(flags.sessions));
    config.Set("requests_per_session", JsonValue::Int(flags.requests));
    config.Set("seed", JsonValue::Int(static_cast<int64_t>(flags.seed)));
    config.Set("smoke", JsonValue::Bool(flags.smoke));
    config.Set("retries", JsonValue::Int(flags.retries));
    config.Set("chaos_threads", JsonValue::Int(flags.chaos));
    config.Set("simd", JsonValue::String(simd));
    doc.Set("config", std::move(config));
    JsonValue record = JsonValue::Object();
    record.Set("type", JsonValue::String("record"));
    record.Set("label", JsonValue::String("mixed-workload"));
    record.Set("requests", JsonValue::Int(static_cast<int64_t>(
                               latencies.size())));
    record.Set("ok", JsonValue::Int(ok));
    record.Set("degraded", JsonValue::Int(degraded));
    record.Set("errors", JsonValue::Int(errors));
    record.Set("sheds", JsonValue::Int(sheds));
    record.Set("transport_failures", JsonValue::Int(transport_failures));
    record.Set("retries", JsonValue::Int(retry.retries));
    record.Set("sheds_absorbed", JsonValue::Int(retry.sheds_seen));
    record.Set("transport_errors_absorbed",
               JsonValue::Int(retry.transport_errors));
    record.Set("backoff_ms_total", JsonValue::Int(retry.backoff_ms_total));
    record.Set("p50_ms", JsonValue::Double(p50));
    record.Set("p95_ms", JsonValue::Double(p95));
    record.Set("p99_ms", JsonValue::Double(p99));
    record.Set("mean_ms", JsonValue::Double(mean));
    record.Set("max_ms", JsonValue::Double(max));
    record.Set("wall_ms", JsonValue::Double(wall_ms));
    record.Set("throughput_rps", JsonValue::Double(throughput));
    JsonValue results_array = JsonValue::Array();
    results_array.Append(std::move(record));
    doc.Set("results", std::move(results_array));
    std::ofstream out(flags.json_out, std::ios::trunc);
    if (!out) {
      std::cerr << "loadgen: cannot write " << flags.json_out << "\n";
      return 1;
    }
    out << doc.Write() << "\n";
    std::cout << "loadgen: wrote " << flags.json_out << "\n";
  }

  // Cross-request sharing report (queried BEFORE any shutdown).  With
  // --assert-sharing a run that produced zero sharing hits of any kind
  // fails: the duplicate-heavy smoke leg exists to prove sharing engages.
  bool sharing_ok = true;
  if (flags.assert_sharing || flags.duplicates > 0) {
    auto fd = muve::server::DialLocal(flags.port);
    JsonValue stats;
    if (fd.ok() && Send(*fd, MakeRequest("stats"), &stats) &&
        ResponseOk(stats)) {
      auto int_of = [](const JsonValue* v) {
        return (v != nullptr && v->is_int()) ? v->int_value() : int64_t{0};
      };
      auto nested = [&stats](const char* obj, const char* field)
          -> const JsonValue* {
        const JsonValue* o = stats.Find(obj);
        return (o != nullptr && o->is_object()) ? o->Find(field) : nullptr;
      };
      const int64_t result_hits = int_of(stats.Find("result_cache_hits"));
      const int64_t base_hits = int_of(nested("base_cache", "hits"));
      const int64_t memo_hits = int_of(nested("score_memo", "hits"));
      const int64_t recommends = int_of(stats.Find("recommends_executed"));
      const int64_t answered = recommends + result_hits;
      const double hit_rate =
          answered > 0
              ? static_cast<double>(result_hits) / static_cast<double>(answered)
              : 0.0;
      std::cout << "loadgen: sharing  result_cache_hits=" << result_hits
                << " (hit-rate " << muve::bench::Ms(hit_rate * 100.0)
                << "%)  base_hits=" << base_hits
                << "  memo_hits=" << memo_hits << "\n";
      if (flags.assert_sharing && result_hits + base_hits + memo_hits == 0) {
        std::cerr << "loadgen: --assert-sharing: no sharing hits recorded\n";
        sharing_ok = false;
      }
    } else {
      std::cerr << "loadgen: stats query failed\n";
      if (flags.assert_sharing) sharing_ok = false;
    }
    if (fd.ok()) ::close(*fd);
  }

  if (flags.do_shutdown) {
    auto fd = muve::server::DialLocal(flags.port);
    if (fd.ok()) {
      JsonValue response;
      if (!Send(*fd, MakeRequest("shutdown"), &response) ||
          !ResponseOk(response)) {
        ++transport_failures;
      }
      ::close(*fd);
    } else {
      ++transport_failures;
    }
  }

  // Sheds deliberately absent: an overload-shed request is the server
  // honoring its admission contract, not a failure of this run.
  return (transport_failures == 0 && sharing_ok && errors == 0) ? 0 : 1;
}
