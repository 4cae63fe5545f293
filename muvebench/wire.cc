#include "wire.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "muved_process.h"
#include "server/protocol.h"
#include "trace.h"

namespace muvebench {

namespace {

using muve::common::Result;
using muve::common::Status;
using muve::server::DialLocal;
using muve::server::RoundTrip;

// One session's socket; closed on destruction.
struct Connection {
  int fd = -1;
  explicit Connection(int port) {
    auto dialed = DialLocal(port);
    if (dialed.ok()) fd = *dialed;
  }
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
};

bool IsOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

// One request/response exchange, timed from just before the send until
// the reply is parsed.  Never retried: a transport failure, shed or
// error frame is the event's outcome.
Event Exchange(Connection* conn, int session, Phase phase, Request request) {
  Event event;
  event.session = session;
  event.phase = phase;
  event.is_append = request.is_append;
  event.expect_hit = request.repeat;
  event.fresh = request.fresh;
  event.request = std::move(request.body);
  event.frame = event.request.Write();
  if (conn->fd < 0) {
    event.error = "not connected";
    return event;
  }
  event.send_ns = NowNs();
  Result<JsonValue> reply = RoundTrip(conn->fd, event.request);
  event.reply_ns = NowNs();
  if (!reply.ok()) {
    event.error = reply.status().ToString();
    return event;
  }
  event.ok = IsOk(*reply);
  if (!event.ok) event.error = reply->Write();
  event.response = *std::move(reply);
  return event;
}

JsonValue Op(const char* name) {
  JsonValue body = JsonValue::Object();
  body.Set("op", JsonValue::String(name));
  return body;
}

Result<JsonValue> Call(int port, const JsonValue& request) {
  Connection conn(port);
  if (conn.fd < 0) return Status::IoError("cannot connect to muved");
  auto reply = RoundTrip(conn.fd, request);
  if (!reply.ok()) return reply.status();
  if (!IsOk(*reply)) return Status::Internal(reply->Write());
  return reply;
}

// Launches muved and loads the workload's tables; returns the seconds
// from launch until the tables are loaded and preloaded.
Result<double> SetUp(const WorkloadPlan& plan, const WireOptions& options,
                     const std::vector<JsonValue>& load_frames,
                     MuvedProcess* server) {
  const int64_t start = NowNs();
  MUVE_RETURN_IF_ERROR(server->Start(options.muved_binary, plan.preload));
  if (plan.scale_table) {
    Connection conn(server->port());
    if (conn.fd < 0) return Status::IoError("cannot connect to muved");
    JsonValue use = Op("use");
    use.Set("dataset", JsonValue::String(kScaleTable));
    std::vector<const JsonValue*> frames;
    for (const JsonValue& frame : load_frames) frames.push_back(&frame);
    frames.push_back(&use);
    for (const JsonValue* frame : frames) {
      auto reply = RoundTrip(conn.fd, *frame);
      if (!reply.ok()) return reply.status();
      if (!IsOk(*reply)) return Status::Internal("setup: " + reply->Write());
    }
  }
  return (NowNs() - start) / 1e9;
}

// The measured stream: closed-loop sessions, one thread and one
// connection each.  `session_seconds` gets each session's busy time.
std::vector<Event> RunStream(const WorkloadPlan& plan,
                             const WireOptions& options, int port,
                             std::vector<double>* session_seconds) {
  std::vector<std::vector<Event>> logs(static_cast<size_t>(plan.sessions));
  session_seconds->assign(static_cast<size_t>(plan.sessions), 0.0);
  std::atomic<bool> writer_done{false};
  const bool ingest = plan.kind == WorkloadKind::kScaleIngest;
  std::vector<std::thread> threads;
  for (int s = 0; s < plan.sessions; ++s) {
    threads.emplace_back([&, s] {
      Connection conn(port);
      SessionStream stream(plan.kind, options.seed, s, plan.sessions);
      std::vector<Event>& log = logs[static_cast<size_t>(s)];
      const bool writer = ingest && s == 0;
      const int64_t start = NowNs();
      for (int64_t sent = 0;; ++sent) {
        if (writer && sent >= 2 * static_cast<int64_t>(plan.appends)) break;
        if (ingest && !writer && writer_done.load()) break;
        if (!ingest && sent >= plan.requests) break;
        log.push_back(Exchange(&conn, s, Phase::kStream, stream.Next()));
        if (conn.fd < 0) break;  // could not connect: stop this session
      }
      (*session_seconds)[static_cast<size_t>(s)] = (NowNs() - start) / 1e9;
      if (writer) writer_done.store(true);
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Event> events;
  for (std::vector<Event>& log : logs) {
    for (Event& event : log) events.push_back(std::move(event));
  }
  return events;
}

// Exact repeats of each session's last computed recommend: one
// untimed-as-hit warm-up (the table may have changed since), then
// `repeats` result-cache hits.
std::vector<Event> HitProbe(const WorkloadPlan& plan,
                            const std::vector<Event>& stream, int port) {
  std::vector<std::vector<Event>> logs(static_cast<size_t>(plan.sessions));
  std::vector<std::thread> threads;
  for (int s = 0; s < plan.sessions; ++s) {
    const Event* last = nullptr;
    for (const Event& event : stream) {
      if (event.session == s && event.ok && !event.is_append &&
          !event.expect_hit) {
        last = &event;
      }
    }
    if (last == nullptr) continue;
    threads.emplace_back([&, s, last] {
      Connection conn(port);
      for (int i = 0; i <= plan.hit_repeats; ++i) {
        Request request;
        request.body = last->request;
        request.repeat = i > 0;
        logs[static_cast<size_t>(s)].push_back(
            Exchange(&conn, s, Phase::kHitProbe, std::move(request)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Event> events;
  for (std::vector<Event>& log : logs) {
    for (Event& event : log) events.push_back(std::move(event));
  }
  return events;
}

// Append-then-recommend cycles on the probe table, one session.
std::vector<Event> FreshProbe(const WorkloadPlan& plan, int port) {
  std::vector<Event> events;
  Connection conn(port);
  for (int cycle = 0; cycle < plan.fresh_cycles; ++cycle) {
    Request append;
    if (plan.probe_table == kScaleTable) {
      const size_t i = static_cast<size_t>(cycle);
      append.body =
          ScaleAppendFrame(ScaleAppendBegin(i), ScaleAppendBegin(i + 1));
    } else {
      append.body = NbaAppendFrame(cycle);
    }
    append.is_append = true;
    events.push_back(Exchange(&conn, 0, Phase::kFreshProbe, std::move(append)));
    Request read;
    read.body = DefaultRecommend(plan.probe_table);
    read.fresh = true;
    events.push_back(Exchange(&conn, 0, Phase::kFreshProbe, std::move(read)));
  }
  return events;
}

}  // namespace

Result<WireRun> RunWire(const WorkloadPlan& plan, const WireOptions& options) {
  WireRun run;
  // CSV text generation happens before any setup is timed.
  if (plan.scale_table) run.load_frames = ScaleLoadFrames();
  MuvedProcess server;
  for (int i = 0; i < options.setups; ++i) {
    if (i > 0) server.Stop();
    MUVE_ASSIGN_OR_RETURN(double seconds,
                          SetUp(plan, options, run.load_frames, &server));
    run.setup_seconds.push_back(seconds);
  }
  const int port = server.port();

  std::vector<Event> events =
      RunStream(plan, options, port, &run.session_seconds);
  MUVE_ASSIGN_OR_RETURN(run.stream_stats, Call(port, Op("stats")));

  if (plan.hit_repeats > 0) {
    std::vector<Event> hits = HitProbe(plan, events, port);
    for (Event& event : hits) events.push_back(std::move(event));
  }
  if (plan.fresh_cycles > 0) {
    std::vector<Event> fresh = FreshProbe(plan, port);
    for (Event& event : fresh) events.push_back(std::move(event));
  }
  if (options.measure_pings) {
    Connection conn(port);
    for (int i = 0; i < 20 && conn.fd >= 0; ++i) {
      const int64_t start = NowNs();
      if (!RoundTrip(conn.fd, Op("ping")).ok()) break;
      run.ping_ms.push_back((NowNs() - start) / 1e6);
    }
  }
  MUVE_ASSIGN_OR_RETURN(run.end_stats, Call(port, Op("stats")));
  server.Stop();

  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.send_ns < b.send_ns;
                   });
  for (const Event& event : events) {
    ++run.attempted;
    if (!event.ok) ++run.failed;
  }
  run.events = std::move(events);
  AssignVersions(&run.events);
  return run;
}

void AssignVersions(std::vector<Event>* events) {
  std::vector<const Event*> appends;
  for (const Event& event : *events) {
    if (event.is_append && event.ok) appends.push_back(&event);
  }
  for (Event& event : *events) {
    if (event.is_append) continue;
    int published = 0;
    int sent = 0;
    for (const Event* append : appends) {
      if (append->reply_ns <= event.send_ns) ++published;
      if (append->send_ns <= event.reply_ns) ++sent;
    }
    event.version_min = published;
    event.version_max = sent;
  }
}

}  // namespace muvebench
