// muved — the long-lived MuVE recommendation server.
//
// One MuvedServer owns the admission gate that caps how many
// Recommend() calls execute at once — excess requests queue FIFO-ish on
// a condition variable instead of oversubscribing the machine — and the
// Registry (server/registry.h) that holds everything reused across
// requests: the catalog, the recommenders and their score memos, the
// server-wide base-histogram store and the result cache.  The op handlers here parse a request, call the
// registry and serialize the reply.  The gate is BOUNDED (max_queue
// waiters, queue_timeout_ms each, deadline-aware): overload is answered
// with a typed `unavailable` shed frame carrying retry_after_ms, never
// with an unbounded invisible backlog (DESIGN.md §14).
//
// Each accepted TCP connection IS one session: a dedicated handler
// thread with per-session defaults (dataset, k, alpha weights, scheme)
// that serves length-prefixed JSON request frames (server/protocol.h)
// strictly one at a time, in order.  Connections themselves are
// lifecycle-managed: idle_timeout_ms bounds silence between frames,
// frame_timeout_ms bounds a frame's arrival once started (slowloris),
// write_timeout_ms bounds a response write against a never-reading
// peer, and max_connections caps live sessions at accept time.
//
// Per-request execution control maps protocol fields straight onto the
// engine's SearchOptions: `deadline_ms` → SearchOptions::deadline_ms,
// `max_rows` → max_rows_scanned, and every connection's in-flight
// request holds a CancellationToken that Stop() trips so shutdown never
// waits out a long deadline.  Degraded (deadline/budget-tripped)
// requests still answer ok:true with the best partial top-k plus a
// completeness block — the protocol mirror of the engine's anytime
// contract.
//
// Shutdown (Stop(), or the "shutdown" op relayed through RequestStop):
//   1. stop accepting — the listen socket closes;
//   2. admission waiters are woken and answer `cancelled`;
//   3. every session socket gets SHUT_RD, so handlers finish the request
//      they are on (its response is still written) and then exit;
//   4. all handler threads are joined.
// In-flight work is drained, never abandoned mid-write.
//
// Binds 127.0.0.1 only: muved has no authentication and must not be
// exposed beyond the host.

#ifndef MUVE_SERVER_MUVED_SERVER_H_
#define MUVE_SERVER_MUVED_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/json.h"
#include "server/registry.h"

namespace muve::server {

struct ServerOptions {
  // TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  // back via port() — the integration tests run this way).
  int port = 0;

  // Admission cap: Recommend() calls executing concurrently.  Requests
  // beyond the cap wait in the gate (the wait is reported back as
  // queue_ms when timings are requested).
  int max_concurrent = 4;

  // --- Overload control (DESIGN.md §14) ---
  //
  // The admission gate is BOUNDED: at most `max_queue` requests may wait
  // for a slot, each for at most `queue_timeout_ms`.  A request that
  // cannot be queued — the queue is full, its own deadline has already
  // expired, or its wait times out — is shed with a typed `unavailable`
  // error frame carrying `retry_after_ms` (protocol.h:
  // OverloadedResponse) instead of waiting unboundedly.  Under overload
  // the server degrades by answering fast instead of by growing an
  // invisible backlog.

  // Waiters allowed at the admission gate.  0 = no waiting room: any
  // request arriving while all slots are busy is shed immediately.
  int max_queue = 64;

  // Longest one request may wait at the gate before being shed.
  // 0 = wait indefinitely (the pre-overload-control behavior; the muved
  // tool sets a production default).
  int queue_timeout_ms = 0;

  // --- Connection lifecycle (DESIGN.md §14) ---
  //
  // Read-side poll() timeouts per connection (protocol.h FrameTimeouts).
  // All default 0 = off so library/test embedders keep blocking
  // semantics; the muved tool sets production defaults.

  // Longest a connected session may sit silent between frames before the
  // server drops it (reclaims its handler thread and fd).
  int idle_timeout_ms = 0;

  // Once a frame's first byte arrives, the budget for the rest of the
  // frame — the anti-slowloris bound.  A client trickling bytes or
  // stalling mid-frame is disconnected within this window.
  int frame_timeout_ms = 0;

  // Budget for writing one response frame.  A peer that never reads
  // (full socket buffer) cannot pin a handler thread past this.
  int write_timeout_ms = 0;

  // Accept-time cap on live connections.  An accept beyond the cap is
  // answered with one `unavailable` frame and closed (close-after-error)
  // so the client sees a typed shed, not a silent RST.  0 = unlimited.
  int max_connections = 0;

  // Upper bound a request's "threads" field may ask for.
  int max_request_threads = 8;

  // Distinct (dataset, predicate) recommenders kept resident; building
  // past the cap evicts the oldest so hostile predicate churn cannot
  // grow the registry without bound.
  size_t max_recommenders = 32;

  // Honor the {"op":"shutdown"} request (the loadgen/CI smoke path).
  // Off = only signals/Stop() end the server.
  bool allow_shutdown_op = true;

  // Canonical top-k response cache (DESIGN.md §13): an unbounded (no
  // deadline_ms / max_rows, no timings) recommend with the same resolved
  // parameters is answered byte-identically from the first response,
  // zero rows touched.  LRU cap on cached responses; 0 = no result cache.
  size_t result_cache_entries = 256;
};

class MuvedServer {
 public:
  explicit MuvedServer(ServerOptions options);
  ~MuvedServer();

  MuvedServer(const MuvedServer&) = delete;
  MuvedServer& operator=(const MuvedServer&) = delete;

  // Binds, listens, and starts the accept thread.  Fails (kIoError) if
  // the port is taken.
  common::Status Start();

  // The bound port (valid after Start; resolves port 0 requests).
  int port() const { return port_; }

  // Asynchronous stop request: makes Wait() return.  Safe from any
  // thread, including a session handler (the "shutdown" op uses it).
  void RequestStop();

  // Blocks until RequestStop() (or a previous Stop()).
  void Wait();

  // Graceful shutdown; see the header comment.  Idempotent; blocks
  // until every handler thread is joined.
  void Stop();

  struct Counters {
    int64_t connections_accepted = 0;
    int64_t requests_served = 0;
    int64_t errors_returned = 0;
    int64_t recommends_executed = 0;
    // Cross-request sharing: recommends answered from / stored into the
    // result cache.  hits + recommends_executed counts every successful
    // recommend (a hit skips execution entirely).
    int64_t result_cache_hits = 0;
    int64_t result_cache_stores = 0;

    // Admission accounting.  Every recommend that reaches the gate is
    // *offered* and leaves through exactly one of the outcome counters —
    // the soak harness asserts the balance exactly:
    //
    //   requests_offered == requests_admitted + requests_shed_queue_full
    //                     + requests_shed_timeout + requests_shed_deadline
    //                     + requests_rejected_stopping
    int64_t requests_offered = 0;
    int64_t requests_admitted = 0;
    int64_t requests_shed_queue_full = 0;   // no waiting room left
    int64_t requests_shed_timeout = 0;      // waited queue_timeout_ms
    int64_t requests_shed_deadline = 0;     // own deadline already spent
    int64_t requests_rejected_stopping = 0;  // server shutting down
    int64_t queue_peak_depth = 0;           // high-water mark of waiters

    // Connection lifecycle accounting.
    int64_t connections_shed = 0;    // accept-time max_connections shed
    int64_t connections_reaped = 0;  // finished handlers joined+freed
    int64_t idle_timeouts = 0;       // sessions dropped for silence
    int64_t frame_timeouts = 0;      // sessions dropped mid-frame (slowloris)
    int64_t write_timeouts = 0;      // responses abandoned (peer not reading)

    // Catalog / incremental-ingest accounting.
    int64_t tables_created = 0;   // `create` ops that succeeded
    int64_t tables_dropped = 0;   // `drop` ops that succeeded
    int64_t appends_executed = 0;  // `append` ops that succeeded
    int64_t rows_ingested = 0;     // rows those appends added
    // Cached base histograms patched by delta merge instead of rebuilt,
    // and zone-map chunk skips while filtering appended rows through
    // resident target predicates.
    int64_t delta_merges = 0;
    int64_t ingest_chunks_skipped = 0;
    // Where ingest time went, summed over successful creates and appends:
    // CSV parsing (both), publishing the next catalog version and
    // delta-patching the base histograms (appends).
    double csv_parse_ms = 0.0;
    double catalog_append_ms = 0.0;
    double delta_ms = 0.0;
    // Rows catalog appends moved into new tail stores instead of writing
    // in place (Catalog::AppendResult::rows_copied).
    int64_t rows_copied = 0;
  };
  Counters counters() const;

 private:
  struct Session;
  struct Connection;

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  JsonValue Dispatch(const JsonValue& request, Session* session,
                     Connection* conn);
  JsonValue HandlePing(const JsonValue& request);
  JsonValue HandleUse(const JsonValue& request, Session* session);
  JsonValue HandleDefaults(const JsonValue& request, Session* session);
  JsonValue HandleRecommend(const JsonValue& request, Session* session,
                            Connection* conn);
  JsonValue HandleHealth(const JsonValue& request);
  JsonValue HandleStats(const JsonValue& request);
  JsonValue HandleInvalidate(const JsonValue& request);
  JsonValue HandleCreate(const JsonValue& request);
  JsonValue HandleAppend(const JsonValue& request);
  JsonValue HandleDrop(const JsonValue& request);
  JsonValue HandleShutdown(Session* session);

  // How one request left the admission gate (see Counters for the exact
  // balance invariant these map onto).
  enum class Admission {
    kAdmitted,
    kShedQueueFull,     // max_queue waiters already queued
    kShedDeadline,      // the request's own deadline had already expired
    kShedQueueTimeout,  // waited queue_timeout_ms without a slot freeing
    kRejectedStopping,  // server shutting down
  };

  // Bounded, deadline-aware admission.  `remaining_deadline_ms` is the
  // request's unspent deadline budget (< 0 = unbounded): a request that
  // would have to queue with none left is shed instead of parked.  On
  // kAdmitted, `queue_ms` gets the wait and `queue_depth` the number of
  // waiters still queued at admit time.  Each outcome has already been
  // counted into Counters when this returns.
  Admission AdmitRequest(double remaining_deadline_ms, double* queue_ms,
                         int64_t* queue_depth);
  void ReleaseRequest();

  // RAII release of one admitted slot: HandleRecommend holds one of
  // these across Recommend() so a throw (failpoint-injected or real)
  // between admission and response cannot leak the slot.
  class SlotGuard {
   public:
    explicit SlotGuard(MuvedServer* server) : server_(server) {}
    ~SlotGuard() {
      if (server_ != nullptr) server_->ReleaseRequest();
    }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;

   private:
    MuvedServer* server_;
  };

  // The retry_after_ms hint stamped into every overloaded frame.
  int64_t RetryAfterHintMs() const;

  // Milliseconds since Start() (0 before it).
  int64_t UptimeMs() const;

  const ServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;

  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  // Stop()/Wait() coordination.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  // Live connections (handler threads + their sockets).
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  // Admission gate.  `queued_` counts waiters parked on gate_cv_; it is
  // what max_queue bounds.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int in_flight_ = 0;
  int queued_ = 0;

  // Set by Start(); UptimeMs() and the health/stats ops read it.
  std::chrono::steady_clock::time_point started_at_{};
  bool started_ = false;

  // Cross-request state: catalog, recommenders, bases, results.
  Registry registry_;

  mutable std::mutex counters_mu_;
  Counters counters_;
};

}  // namespace muve::server

#endif  // MUVE_SERVER_MUVED_SERVER_H_
