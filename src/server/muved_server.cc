#include "server/muved_server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <limits>
#include <thread>
#include <utility>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/simd/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/search_options.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/toy.h"
#include "server/protocol.h"
#include "sql/parser.h"
#include "storage/csv.h"

namespace muve::server {

namespace {

using common::Result;
using common::Status;

// ---------------------------------------------------------------------------
// Strict request-field decoding.
//
// Every field is checked for type AND range, unknown fields are
// rejected, and every diagnostic names the offending field — the wire
// mirror of the CLI's flag parsing.  Numbers already passed the shared
// strict parser inside ParseJson; these helpers add the per-field
// semantics.
// ---------------------------------------------------------------------------

Status CheckAllowedFields(const JsonValue& request,
                          std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : request.members()) {
    (void)value;
    bool known = false;
    for (std::string_view name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown request field \"" + key + "\"");
    }
  }
  return Status::OK();
}

// Optional string field; `*out` is left alone when absent.
Status GetString(const JsonValue& request, std::string_view name,
                 std::string* out) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return Status::OK();
  if (!field->is_string()) {
    return Status::InvalidArgument(std::string(name) + ": expected a string");
  }
  *out = field->string_value();
  return Status::OK();
}

// GetString without the copy, for multi-MB payloads (`csv`): `*out`
// points into `request`, or stays null when the field is absent.
Status GetStringRef(const JsonValue& request, std::string_view name,
                    const std::string** out) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return Status::OK();
  if (!field->is_string()) {
    return Status::InvalidArgument(std::string(name) + ": expected a string");
  }
  *out = &field->string_value();
  return Status::OK();
}

// Optional integer field with an inclusive range; `*out` untouched when
// absent.  A double-typed JSON number is rejected: ids, k, and budgets
// must arrive as integers.
Status GetInt64(const JsonValue& request, std::string_view name, int64_t* out,
                int64_t min_value, int64_t max_value) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return Status::OK();
  if (!field->is_int()) {
    return Status::InvalidArgument(std::string(name) +
                                   ": expected an integer");
  }
  const int64_t value = field->int_value();
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        std::string(name) + ": expected an integer in [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) +
        "], got " + std::to_string(value));
  }
  *out = value;
  return Status::OK();
}

Status GetDouble(const JsonValue& request, std::string_view name, double* out,
                 double min_value, double max_value) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return Status::OK();
  if (!field->is_number()) {
    return Status::InvalidArgument(std::string(name) + ": expected a number");
  }
  const double value = field->number_value();
  if (!(value >= min_value && value <= max_value)) {
    return Status::InvalidArgument(std::string(name) + ": out of range");
  }
  *out = value;
  return Status::OK();
}

Status GetBool(const JsonValue& request, std::string_view name, bool* out) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return Status::OK();
  if (!field->is_bool()) {
    return Status::InvalidArgument(std::string(name) + ": expected a bool");
  }
  *out = field->bool_value();
  return Status::OK();
}

// Optional "weights": [alpha_D, alpha_A, alpha_S], each in [0, 1].
Status GetWeights(const JsonValue& request, std::string_view name,
                  core::Weights* out, bool* present) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr) return Status::OK();
  if (!field->is_array() || field->array().size() != 3) {
    return Status::InvalidArgument(
        std::string(name) + ": expected an array of 3 numbers [D, A, S]");
  }
  double w[3];
  for (size_t i = 0; i < 3; ++i) {
    const JsonValue& e = field->array()[i];
    if (!e.is_number() || !(e.number_value() >= 0.0) ||
        !(e.number_value() <= 1.0)) {
      return Status::InvalidArgument(std::string(name) +
                                     ": each weight must be in [0, 1]");
    }
    w[i] = e.number_value();
  }
  *out = core::Weights{w[0], w[1], w[2]};
  if (present != nullptr) *present = true;
  return Status::OK();
}

// The error for a name missing from core's scheme / probe-order tables.
Status UnknownName(const char* field, const std::string& name) {
  return Status::InvalidArgument(std::string(field) + ": unknown \"" + name +
                                 "\"");
}

JsonValue SerializeViews(const std::vector<core::ScoredView>& views) {
  JsonValue array = JsonValue::Array();
  for (const core::ScoredView& sv : views) {
    JsonValue v = JsonValue::Object();
    v.Set("dimension", JsonValue::String(sv.view.dimension));
    v.Set("measure", JsonValue::String(sv.view.measure));
    v.Set("function",
          JsonValue::String(storage::AggregateName(sv.view.function)));
    v.Set("bins", JsonValue::Int(sv.bins));
    v.Set("utility", JsonValue::Double(sv.utility));
    v.Set("deviation", JsonValue::Double(sv.deviation));
    v.Set("accuracy", JsonValue::Double(sv.accuracy));
    v.Set("usability", JsonValue::Double(sv.usability));
    array.Append(std::move(v));
  }
  return array;
}

// Deterministic counters only — wall-clock and dispatch-level live in
// the opt-in "timings" block, so the default recommend payload is
// byte-identical across SIMD dispatch levels (for configurations the
// engine itself makes deterministic).
JsonValue SerializeStats(const core::ExecStats& stats) {
  JsonValue s = JsonValue::Object();
  s.Set("rows_scanned", JsonValue::Int(stats.rows_scanned));
  s.Set("build_rows_scanned", JsonValue::Int(stats.build_rows_scanned));
  s.Set("probe_rows_scanned", JsonValue::Int(stats.probe_rows_scanned));
  s.Set("base_builds", JsonValue::Int(stats.base_builds));
  s.Set("base_cache_hits", JsonValue::Int(stats.base_cache_hits));
  s.Set("fused_builds", JsonValue::Int(stats.fused_builds));
  s.Set("fused_coalesced", JsonValue::Int(stats.fused_coalesced));
  s.Set("chunks_skipped", JsonValue::Int(stats.chunks_skipped));
  s.Set("candidates_considered", JsonValue::Int(stats.candidates_considered));
  s.Set("fully_probed", JsonValue::Int(stats.fully_probed));
  s.Set("views_searched", JsonValue::Int(stats.views_searched));
  s.Set("num_workers", JsonValue::Int(stats.num_workers));
  return s;
}

JsonValue SerializeCompleteness(const core::ExecCompleteness& c) {
  JsonValue out = JsonValue::Object();
  out.Set("status", JsonValue::String(common::StatusCodeName(c.status)));
  out.Set("views_fully_searched", JsonValue::Int(c.views_fully_searched));
  out.Set("bins_pruned", JsonValue::Int(c.bins_pruned_by_deadline));
  return out;
}

// Required array-of-nonempty-strings field (create's dims/measures).
Status GetStringArray(const JsonValue& request, std::string_view name,
                      std::vector<std::string>* out) {
  const JsonValue* field = request.Find(name);
  if (field == nullptr || !field->is_array() || field->array().empty()) {
    return Status::InvalidArgument(std::string(name) +
                                   ": expected a non-empty string array");
  }
  out->clear();
  for (const JsonValue& item : field->array()) {
    if (!item.is_string() || item.string_value().empty()) {
      return Status::InvalidArgument(std::string(name) +
                                     ": expected a non-empty string array");
    }
    out->push_back(item.string_value());
  }
  return Status::OK();
}

// Peak resident set size of this process, in bytes.  VmHWM from
// /proc/self/status where available (Linux), getrusage otherwise.
int64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<int64_t>(usage.ru_maxrss) * 1024;
  }
  return 0;
}

}  // namespace

// Per-session protocol state: the session *is* the connection.
struct MuvedServer::Session {
  std::string dataset;    // current dataset ("" until a `use`)
  std::string predicate;  // "" = the dataset's built-in predicate
  int64_t default_k = 5;
  core::Weights default_weights = core::Weights::PaperDefault();
  std::string default_scheme = "muve-muve";
};

struct MuvedServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};

  // The in-flight request's cancel token, if any; Stop() trips it so a
  // long-deadline search cannot stall shutdown.
  std::mutex cancel_mu;
  std::shared_ptr<common::CancellationToken> active_cancel;

  // The handler thread never close()s the socket itself — it only
  // shutdown()s (FIN) and marks done.  The fd number stays allocated
  // until the owner joins the thread and destroys the Connection, so
  // Stop()'s shutdown(conn->fd) can never hit a recycled descriptor.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

MuvedServer::MuvedServer(ServerOptions options)
    : options_(std::move(options)),
      registry_(Registry::Options{options_.max_recommenders,
                                  options_.result_cache_entries}) {
  // The built-ins enter the catalog like any created table, carrying
  // their paper workloads.  Table::Clone shares chunks, so the
  // registrations cost O(columns), not O(rows).
  const std::pair<const char*, data::Dataset> builtins[] = {
      {"toy", data::MakeToyDataset()},
      {"nba", data::MakeNbaDataset()},
      {"diab", data::MakeDiabDataset()},
  };
  for (const auto& [name, ds] : builtins) {
    const Status st =
        registry_.Create(name, ds.table->Clone(), data::WorkloadOf(ds));
    MUVE_CHECK(st.ok()) << st.ToString();
  }
}

MuvedServer::~MuvedServer() { Stop(); }

Status MuvedServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind 127.0.0.1:" + std::to_string(options_.port) +
                           ": " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("listen: ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  started_at_ = std::chrono::steady_clock::now();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MuvedServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (stopping_.load(std::memory_order_acquire)) break;
      // A connection aborted between listen and accept is the CLIENT's
      // failure; fd/buffer exhaustion from a burst is transient.  Neither
      // may retire the accept thread — that would leave a daemon that
      // looks alive but can never take another connection.
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listen socket gone (EBADF/EINVAL after Stop) or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // Chaos site: an injected error here simulates the accept path
    // failing after the kernel handed over a socket (delay simulates a
    // slow accept thread under load).
    switch (MUVE_FAILPOINT("server.accept")) {
      case common::FailpointAction::kError:
      case common::FailpointAction::kOom:
        ::close(fd);
        continue;
      default:
        break;
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_accepted;
    }
    int64_t reaped_now = 0;
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap finished handlers so a long-lived daemon doesn't accumulate
      // one dead thread object (and one fd) per past connection.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
          ++reaped_now;
        } else {
          ++it;
        }
      }
      shed = options_.max_connections > 0 &&
             static_cast<int>(conns_.size()) >= options_.max_connections;
      if (!shed) {
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection* raw = conn.get();
        conn->thread = std::thread([this, raw] { HandleConnection(raw); });
        conns_.push_back(std::move(conn));
      }
    }
    if (shed) {
      // Close-after-error: one typed shed frame, then the socket closes.
      // The write is bounded (a hostile connector that never reads must
      // not pin the ONLY accept thread) and best-effort — a peer that
      // missed the frame still sees a prompt close.
      const int shed_write_ms =
          options_.write_timeout_ms > 0 ? options_.write_timeout_ms : 100;
      (void)WriteMessage(
          fd,
          OverloadedResponse(
              Status::Unavailable("overloaded: connection limit reached"),
              RetryAfterHintMs()),
          shed_write_ms);
      ::close(fd);
    }
    if (reaped_now > 0 || shed) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.connections_reaped += reaped_now;
      if (shed) ++counters_.connections_shed;
    }
  }
}

void MuvedServer::HandleConnection(Connection* conn) {
  Session session;
  const FrameTimeouts timeouts{options_.idle_timeout_ms,
                               options_.frame_timeout_ms};
  // Best-effort close-after-error: one bounded-write error frame before
  // the drop, so a live-but-slow client learns WHY it was cut off.  The
  // bound keeps a hostile never-reading peer from turning its own
  // eviction into a thread pin.
  const int goodbye_write_ms =
      options_.write_timeout_ms > 0 ? options_.write_timeout_ms : 100;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Chaos site: injected error = the read path failing hard (delay =
    // a handler stalled before its read, holding the session open).
    switch (MUVE_FAILPOINT("server.read")) {
      case common::FailpointAction::kError:
      case common::FailpointAction::kOom:
        goto drop;
      default:
        break;
    }
    {
      std::string payload;
      FrameTimeoutKind timeout_kind = FrameTimeoutKind::kNone;
      const Status read_status =
          ReadFrame(conn->fd, &payload, timeouts, &timeout_kind);
      if (!read_status.ok()) {
        if (timeout_kind == FrameTimeoutKind::kIdle) {
          // Silent between frames past idle_timeout_ms: reclaim the
          // session.  The peer was not mid-request, so no error frame is
          // owed — just a prompt FIN.
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.idle_timeouts;
          goto drop;
        }
        if (timeout_kind == FrameTimeoutKind::kMidFrame) {
          // Started a frame but never finished it (slowloris / stalled
          // client): the stream is torn, disconnect within the window.
          {
            std::lock_guard<std::mutex> lock(counters_mu_);
            ++counters_.frame_timeouts;
          }
          (void)WriteMessage(conn->fd, ErrorResponse(read_status),
                             goodbye_write_ms);
          goto drop;
        }
        // kParseError = a malformed frame header (bad length prefix): the
        // stream cannot be resynchronized, so answer with a protocol
        // error and drop the connection — the server itself lives on.
        if (read_status.code() == common::StatusCode::kParseError) {
          (void)WriteMessage(conn->fd, ErrorResponse(read_status),
                             goodbye_write_ms);
        }
        goto drop;  // clean EOF (kNotFound), I/O error, or unsyncable frame
      }
      JsonValue response;
      auto parsed = ParseJson(payload);
      if (!parsed.ok()) {
        // Malformed JSON inside a well-framed payload: the framing is
        // intact, so report the error and KEEP the session alive.
        response = ErrorResponse(parsed.status());
      } else {
        // A throw below (failpoint-injected or a genuine bug) must cost
        // this request, not the whole daemon: the RAII slot guard has
        // already released any admission slot on unwind, so answering
        // `internal` and keeping the session alive is safe.
        try {
          response = Dispatch(*parsed, &session, conn);
        } catch (const std::exception& e) {
          response = ErrorResponse(Status::Internal(
              std::string("unhandled exception in request handler: ") +
              e.what()));
        }
      }
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.requests_served;
        const JsonValue* ok = response.Find("ok");
        if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
          ++counters_.errors_returned;
        }
      }
      // Chaos site: injected error = the response write failing (delay =
      // a slow write path, e.g. a congested peer).
      switch (MUVE_FAILPOINT("server.write")) {
        case common::FailpointAction::kError:
        case common::FailpointAction::kOom:
          goto drop;
        default:
          break;
      }
      const Status write_status =
          WriteMessage(conn->fd, response, options_.write_timeout_ms);
      if (!write_status.ok()) {
        if (write_status.code() == common::StatusCode::kDeadlineExceeded) {
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.write_timeouts;
        }
        goto drop;
      }
    }
  }
drop:
  ::shutdown(conn->fd, SHUT_RDWR);  // FIN now; the fd closes at reap/Stop
  conn->done.store(true, std::memory_order_release);
}

JsonValue MuvedServer::Dispatch(const JsonValue& request, Session* session,
                                Connection* conn) {
  if (!request.is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request must be a JSON object"));
  }
  const JsonValue* op = request.Find("op");
  if (op == nullptr || !op->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("request needs a string \"op\" field"));
  }
  const std::string& name = op->string_value();
  if (name == "ping") return HandlePing(request);
  if (name == "use") return HandleUse(request, session);
  if (name == "defaults") return HandleDefaults(request, session);
  if (name == "recommend") return HandleRecommend(request, session, conn);
  if (name == "health") return HandleHealth(request);
  if (name == "stats") return HandleStats(request);
  if (name == "invalidate") return HandleInvalidate(request);
  if (name == "create") return HandleCreate(request);
  if (name == "append") return HandleAppend(request);
  if (name == "drop") return HandleDrop(request);
  if (name == "shutdown") {
    if (!options_.allow_shutdown_op) {
      return ErrorResponse(
          Status::InvalidArgument("shutdown op disabled on this server"));
    }
    return HandleShutdown(session);
  }
  return ErrorResponse(Status::InvalidArgument("unknown op \"" + name + "\""));
}

JsonValue MuvedServer::HandlePing(const JsonValue& request) {
  if (Status st = CheckAllowedFields(request, {"op"}); !st.ok()) {
    return ErrorResponse(st);
  }
  JsonValue response = OkResponse("pong");
  response.Set("simd",
               JsonValue::String(common::simd::ActiveLevelName()));
  response.Set("max_concurrent", JsonValue::Int(options_.max_concurrent));
  return response;
}

JsonValue MuvedServer::HandleUse(const JsonValue& request, Session* session) {
  if (Status st = CheckAllowedFields(request, {"op", "dataset", "predicate"});
      !st.ok()) {
    return ErrorResponse(st);
  }
  std::string dataset;
  std::string predicate;
  if (Status st = GetString(request, "dataset", &dataset); !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetString(request, "predicate", &predicate); !st.ok()) {
    return ErrorResponse(st);
  }
  if (dataset.empty()) {
    return ErrorResponse(Status::InvalidArgument("use: dataset is required"));
  }
  auto entry = registry_.Resolve(dataset, predicate);
  if (!entry.ok()) return ErrorResponse(entry.status());
  const core::Recommender& rec = *entry->recommender;
  session->dataset = dataset;
  session->predicate = predicate;
  JsonValue response = OkResponse("use");
  response.Set("dataset", JsonValue::String(dataset));
  response.Set("rows", JsonValue::Int(static_cast<int64_t>(
                           rec.dataset().table->num_rows())));
  response.Set("target_rows", JsonValue::Int(static_cast<int64_t>(
                                  rec.dataset().target_rows.size())));
  response.Set("views", JsonValue::Int(static_cast<int64_t>(
                            rec.space().views().size())));
  response.Set("binned_views", JsonValue::Int(rec.space().TotalBinnedViews()));
  return response;
}

JsonValue MuvedServer::HandleDefaults(const JsonValue& request,
                                      Session* session) {
  if (Status st = CheckAllowedFields(request, {"op", "k", "weights", "scheme"});
      !st.ok()) {
    return ErrorResponse(st);
  }
  int64_t k = session->default_k;
  core::Weights weights = session->default_weights;
  std::string scheme = session->default_scheme;
  if (Status st = GetInt64(request, "k", &k, 1, 1000000); !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetWeights(request, "weights", &weights, nullptr);
      !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetString(request, "scheme", &scheme); !st.ok()) {
    return ErrorResponse(st);
  }
  if (!core::SchemeFromName(scheme)) {
    return ErrorResponse(UnknownName("scheme", scheme));
  }
  session->default_k = k;
  session->default_weights = weights;
  session->default_scheme = scheme;
  JsonValue response = OkResponse("defaults");
  response.Set("k", JsonValue::Int(k));
  JsonValue w = JsonValue::Array();
  w.Append(JsonValue::Double(weights.deviation));
  w.Append(JsonValue::Double(weights.accuracy));
  w.Append(JsonValue::Double(weights.usability));
  response.Set("weights", std::move(w));
  response.Set("scheme", JsonValue::String(common::ToLower(scheme)));
  return response;
}

JsonValue MuvedServer::HandleRecommend(const JsonValue& request,
                                       Session* session, Connection* conn) {
  // Starts at decode so time spent parsing, building a cold recommender,
  // and above all WAITING AT THE ADMISSION GATE is charged against the
  // request's own deadline — a request that queued its whole budget away
  // executes with none left and degrades immediately, instead of running
  // a full search its client has already given up on.
  common::Stopwatch request_timer;
  if (Status st = CheckAllowedFields(
          request, {"op", "dataset", "predicate", "scheme", "k", "weights",
                    "distance", "probe_order", "deadline_ms", "max_rows",
                    "threads", "include_timings"});
      !st.ok()) {
    return ErrorResponse(st);
  }
  std::string dataset = session->dataset;
  std::string predicate = session->predicate;
  std::string scheme = session->default_scheme;
  if (Status st = GetString(request, "dataset", &dataset); !st.ok()) {
    return ErrorResponse(st);
  }
  if (request.Find("dataset") != nullptr) {
    // An explicit dataset resets the predicate unless one rides along.
    predicate.clear();
  }
  if (Status st = GetString(request, "predicate", &predicate); !st.ok()) {
    return ErrorResponse(st);
  }
  if (dataset.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "recommend: no dataset (send {\"op\":\"use\",...} first or pass "
        "\"dataset\")"));
  }
  if (Status st = GetString(request, "scheme", &scheme); !st.ok()) {
    return ErrorResponse(st);
  }
  const std::optional<core::Scheme> named = core::SchemeFromName(scheme);
  if (!named) return ErrorResponse(UnknownName("scheme", scheme));
  core::SearchOptions options;
  options.horizontal = named->horizontal;
  options.vertical = named->vertical;

  options.weights = session->default_weights;
  if (Status st = GetWeights(request, "weights", &options.weights, nullptr);
      !st.ok()) {
    return ErrorResponse(st);
  }
  int64_t k = session->default_k;
  if (Status st = GetInt64(request, "k", &k, 1, 1000000); !st.ok()) {
    return ErrorResponse(st);
  }
  options.k = static_cast<int>(k);

  std::string distance;
  if (Status st = GetString(request, "distance", &distance); !st.ok()) {
    return ErrorResponse(st);
  }
  if (!distance.empty()) {
    auto kind = core::DistanceKindFromName(distance);
    if (!kind.ok()) return ErrorResponse(kind.status());
    options.distance = *kind;
  }
  std::string probe_order;
  if (Status st = GetString(request, "probe_order", &probe_order); !st.ok()) {
    return ErrorResponse(st);
  }
  if (!probe_order.empty()) {
    const auto policy = core::ProbeOrderFromName(probe_order);
    if (!policy) return ErrorResponse(UnknownName("probe_order", probe_order));
    options.probe_order = *policy;
  }
  double deadline_ms = -1.0;
  if (Status st = GetDouble(request, "deadline_ms", &deadline_ms, 0.0, 1e12);
      !st.ok()) {
    return ErrorResponse(st);
  }
  options.deadline_ms = deadline_ms;
  int64_t max_rows = 0;
  if (Status st = GetInt64(request, "max_rows", &max_rows, 0,
                           std::numeric_limits<int64_t>::max());
      !st.ok()) {
    return ErrorResponse(st);
  }
  options.max_rows_scanned = max_rows;
  int64_t threads = 1;
  if (Status st = GetInt64(request, "threads", &threads, 1,
                           options_.max_request_threads);
      !st.ok()) {
    return ErrorResponse(st);
  }
  options.num_threads = static_cast<int>(threads);
  bool include_timings = false;
  if (Status st = GetBool(request, "include_timings", &include_timings);
      !st.ok()) {
    return ErrorResponse(st);
  }

  auto entry = registry_.Resolve(dataset, predicate);
  if (!entry.ok()) return ErrorResponse(entry.status());

  // Result cache: only unbounded, timing-free requests participate — a
  // deadline or row budget makes the response depend on wall-clock, and
  // a timings block is wall-clock by definition.  A hit re-serializes
  // the FIRST response's JsonValue through the canonical writer, so the
  // wire bytes are identical, and skips admission entirely (it costs no
  // execution slot).
  const bool cacheable = registry_.caches_results() && deadline_ms < 0.0 &&
                         max_rows == 0 && !include_timings;
  std::string result_key;
  if (cacheable) {
    result_key = Registry::ResultKey(*entry, options, k, threads);
    JsonValue cached;
    if (registry_.LookupResult(result_key, &cached)) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.result_cache_hits;
      return cached;
    }
  }

  // The server-wide base-histogram store, under this table version's
  // comparison prefix and this predicate's target prefix.
  options.shared_base_cache = entry->base_cache;

  // Bounded, deadline-aware admission (DESIGN.md §14).  The remaining
  // budget is what is left of deadline_ms after decode/registry work; a
  // request with none left that would have to queue is shed typed.
  const double remaining_ms =
      deadline_ms < 0.0
          ? -1.0
          : std::max(0.0, deadline_ms - request_timer.ElapsedMillis());
  double queue_ms = 0.0;
  int64_t queue_depth = 0;
  switch (AdmitRequest(remaining_ms, &queue_ms, &queue_depth)) {
    case Admission::kAdmitted:
      break;
    case Admission::kRejectedStopping:
      return ErrorResponse(
          Status::Cancelled("server is shutting down; request not admitted"));
    case Admission::kShedQueueFull:
      return OverloadedResponse(
          Status::Unavailable("overloaded: admission queue is full"),
          RetryAfterHintMs());
    case Admission::kShedDeadline:
      return OverloadedResponse(
          Status::Unavailable(
              "overloaded: request deadline already spent before admission"),
          RetryAfterHintMs());
    case Admission::kShedQueueTimeout:
      return OverloadedResponse(
          Status::Unavailable(
              "overloaded: no execution slot freed within queue timeout"),
          RetryAfterHintMs());
  }

  // Admitted.  Re-charge the wait against the deadline so the engine
  // sees only what the client has left, and hold the slot through an
  // RAII guard — a throw anywhere below (failpoint-injected or real)
  // releases it on unwind instead of wedging the gate one slot smaller
  // forever.
  if (options.deadline_ms >= 0.0) {
    options.deadline_ms =
        std::max(0.0, deadline_ms - request_timer.ElapsedMillis());
  }

  // Shutdown must not wait out a long deadline: every in-flight request
  // carries a token Stop() can trip.
  auto cancel = std::make_shared<common::CancellationToken>();
  options.cancel_token = cancel;
  {
    std::lock_guard<std::mutex> lock(conn->cancel_mu);
    conn->active_cancel = cancel;
  }

  common::Result<core::Recommendation> rec =
      Status::Internal("recommend did not run");
  double exec_ms = 0.0;
  {
    SlotGuard slot(this);
    // Deterministic unwind path: armed with throw, this exercises
    // exactly the leak the RAII guard exists to prevent (the engine
    // catches its own worker throws, so nothing else reaches here).
    switch (MUVE_FAILPOINT("server.recommend")) {
      case common::FailpointAction::kThrow:
        throw common::FailpointError("server.recommend");
      case common::FailpointAction::kError:
        rec = Status::Internal("failpoint server.recommend");
        break;
      default: {
        common::Stopwatch exec_timer;
        rec = entry->recommender->Recommend(options);
        exec_ms = exec_timer.ElapsedMillis();
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->cancel_mu);
    conn->active_cancel.reset();
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.recommends_executed;
  }
  if (!rec.ok()) return ErrorResponse(rec.status());
  rec->stats.queue_ms = queue_ms;
  rec->stats.queue_depth_on_admit = queue_depth;

  JsonValue response = OkResponse("recommend");
  response.Set("dataset", JsonValue::String(dataset));
  response.Set("scheme", JsonValue::String(rec->scheme));
  response.Set("k", JsonValue::Int(k));
  response.Set("degraded",
               JsonValue::Bool(rec->stats.completeness.degraded));
  response.Set("completeness", SerializeCompleteness(rec->stats.completeness));
  response.Set("views", SerializeViews(rec->views));
  response.Set("stats", SerializeStats(rec->stats));
  // Store before the (never-cached) timings block would be attached.  A
  // degraded response is excluded belt-and-braces: unbounded runs only
  // degrade when shutdown cancellation catches them mid-flight, and that
  // partial top-k must not outlive the shutdown that caused it.
  if (cacheable && !rec->stats.completeness.degraded &&
      registry_.StoreResult(result_key, response)) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.result_cache_stores;
  }
  if (include_timings) {
    JsonValue timings = JsonValue::Object();
    timings.Set("queue_ms", JsonValue::Double(queue_ms));
    timings.Set("queue_depth", JsonValue::Int(queue_depth));
    timings.Set("exec_ms", JsonValue::Double(exec_ms));
    timings.Set("cost_ms", JsonValue::Double(rec->stats.TotalCostMillis()));
    timings.Set("simd", JsonValue::String(rec->stats.simd_dispatch));
    response.Set("timings", std::move(timings));
  }
  return response;
}

JsonValue MuvedServer::HandleShutdown(Session* session) {
  (void)session;
  RequestStop();
  return OkResponse("shutdown");
}

JsonValue MuvedServer::HandleHealth(const JsonValue& request) {
  if (Status st = CheckAllowedFields(request, {"op"}); !st.ok()) {
    return ErrorResponse(st);
  }
  // Deliberately gate-free: health never touches the admission gate's
  // condition variable, so it answers instantly even when every
  // execution slot is busy and the queue is full — exactly when an
  // operator most needs to see the numbers below.
  JsonValue response = OkResponse("health");
  response.Set("uptime_ms", JsonValue::Int(UptimeMs()));
  response.Set("stopping",
               JsonValue::Bool(stopping_.load(std::memory_order_acquire)));
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    response.Set("in_flight", JsonValue::Int(in_flight_));
    response.Set("queue_depth", JsonValue::Int(queued_));
  }
  response.Set("max_concurrent", JsonValue::Int(options_.max_concurrent));
  response.Set("max_queue", JsonValue::Int(options_.max_queue));
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    response.Set("connections_live",
                 JsonValue::Int(static_cast<int64_t>(conns_.size())));
  }
  return response;
}

JsonValue MuvedServer::HandleStats(const JsonValue& request) {
  if (Status st = CheckAllowedFields(request, {"op"}); !st.ok()) {
    return ErrorResponse(st);
  }
  JsonValue response = OkResponse("stats");
  response.Set("uptime_ms", JsonValue::Int(UptimeMs()));
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    response.Set("connections_accepted",
                 JsonValue::Int(counters_.connections_accepted));
    response.Set("requests_served", JsonValue::Int(counters_.requests_served));
    response.Set("errors_returned", JsonValue::Int(counters_.errors_returned));
    response.Set("recommends_executed",
                 JsonValue::Int(counters_.recommends_executed));
    response.Set("result_cache_hits",
                 JsonValue::Int(counters_.result_cache_hits));
    response.Set("result_cache_stores",
                 JsonValue::Int(counters_.result_cache_stores));
    JsonValue admission = JsonValue::Object();
    admission.Set("offered", JsonValue::Int(counters_.requests_offered));
    admission.Set("admitted", JsonValue::Int(counters_.requests_admitted));
    admission.Set("shed_queue_full",
                  JsonValue::Int(counters_.requests_shed_queue_full));
    admission.Set("shed_timeout",
                  JsonValue::Int(counters_.requests_shed_timeout));
    admission.Set("shed_deadline",
                  JsonValue::Int(counters_.requests_shed_deadline));
    admission.Set("rejected_stopping",
                  JsonValue::Int(counters_.requests_rejected_stopping));
    admission.Set("queue_peak_depth",
                  JsonValue::Int(counters_.queue_peak_depth));
    response.Set("admission", std::move(admission));
    JsonValue conns = JsonValue::Object();
    conns.Set("shed", JsonValue::Int(counters_.connections_shed));
    conns.Set("reaped", JsonValue::Int(counters_.connections_reaped));
    conns.Set("idle_timeouts", JsonValue::Int(counters_.idle_timeouts));
    conns.Set("frame_timeouts", JsonValue::Int(counters_.frame_timeouts));
    conns.Set("write_timeouts", JsonValue::Int(counters_.write_timeouts));
    response.Set("connections", std::move(conns));
    JsonValue ingest = JsonValue::Object();
    ingest.Set("tables_created", JsonValue::Int(counters_.tables_created));
    ingest.Set("tables_dropped", JsonValue::Int(counters_.tables_dropped));
    ingest.Set("appends", JsonValue::Int(counters_.appends_executed));
    ingest.Set("rows_ingested", JsonValue::Int(counters_.rows_ingested));
    ingest.Set("delta_merges", JsonValue::Int(counters_.delta_merges));
    ingest.Set("chunks_skipped",
               JsonValue::Int(counters_.ingest_chunks_skipped));
    ingest.Set("csv_parse_ms", JsonValue::Double(counters_.csv_parse_ms));
    ingest.Set("catalog_append_ms",
               JsonValue::Double(counters_.catalog_append_ms));
    ingest.Set("rows_copied", JsonValue::Int(counters_.rows_copied));
    ingest.Set("delta_ms", JsonValue::Double(counters_.delta_ms));
    response.Set("ingest", std::move(ingest));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    response.Set("in_flight", JsonValue::Int(in_flight_));
    response.Set("queue_depth", JsonValue::Int(queued_));
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    response.Set("connections_live",
                 JsonValue::Int(static_cast<int64_t>(conns_.size())));
  }
  {
    // The server-wide base-histogram store, split by side.
    const Registry::Stats reg = registry_.stats();
    auto side = [](const storage::BaseHistogramCache::SideStats& stats) {
      JsonValue out = JsonValue::Object();
      out.Set("builds", JsonValue::Int(stats.builds));
      out.Set("hits", JsonValue::Int(stats.hits));
      out.Set("bytes", JsonValue::Int(stats.bytes));
      return out;
    };
    JsonValue b = JsonValue::Object();
    b.Set("lookups", JsonValue::Int(reg.base_cache.lookups));
    b.Set("hits", JsonValue::Int(reg.base_cache.hits));
    b.Set("misses", JsonValue::Int(reg.base_cache.misses));
    b.Set("builds", JsonValue::Int(reg.base_cache.builds));
    b.Set("evictions", JsonValue::Int(reg.base_cache.evictions));
    b.Set("bytes", JsonValue::Int(reg.base_cache.bytes));
    b.Set("max_bytes",
          JsonValue::Int(static_cast<int64_t>(reg.base_cache_max_bytes)));
    b.Set("predicates",
          JsonValue::Int(static_cast<int64_t>(reg.predicates)));
    b.Set("target", side(reg.base_cache.target));
    b.Set("comparison", side(reg.base_cache.comparison));
    response.Set("base_cache", std::move(b));
    response.Set("result_cache_entries",
                 JsonValue::Int(static_cast<int64_t>(reg.results)));
  }
  {
    // Per-table residency: rows, epochs, and an estimate of the chunk
    // storage each table pins (Table::ApproxBytes over its snapshot),
    // plus the process's peak RSS for the operator's capacity picture.
    JsonValue tables = JsonValue::Object();
    int64_t resident_total = 0;
    const storage::Catalog& catalog = registry_.catalog();
    for (const std::string& name : catalog.List()) {
      auto snap = catalog.Get(name);
      if (!snap.ok()) continue;  // racing drop
      const int64_t bytes =
          static_cast<int64_t>(snap->table->ApproxBytes());
      resident_total += bytes;
      JsonValue t = JsonValue::Object();
      t.Set("rows", JsonValue::Int(
                        static_cast<int64_t>(snap->table->num_rows())));
      t.Set("data_epoch",
            JsonValue::Int(static_cast<int64_t>(snap->data_epoch)));
      t.Set("resident_bytes", JsonValue::Int(bytes));
      tables.Set(name, std::move(t));
    }
    response.Set("tables", std::move(tables));
    JsonValue memory = JsonValue::Object();
    memory.Set("peak_rss_bytes", JsonValue::Int(PeakRssBytes()));
    memory.Set("tables_resident_bytes", JsonValue::Int(resident_total));
    response.Set("memory", std::move(memory));
  }
  return response;
}

JsonValue MuvedServer::HandleInvalidate(const JsonValue& request) {
  if (Status st = CheckAllowedFields(request, {"op", "dataset"}); !st.ok()) {
    return ErrorResponse(st);
  }
  std::string dataset;
  if (Status st = GetString(request, "dataset", &dataset); !st.ok()) {
    return ErrorResponse(st);
  }
  auto epoch = registry_.Invalidate(dataset);
  if (!epoch.ok()) return ErrorResponse(epoch.status());
  JsonValue response = OkResponse("invalidate");
  response.Set("dataset", JsonValue::String(dataset));
  response.Set("epoch", JsonValue::Int(static_cast<int64_t>(*epoch)));
  return response;
}

JsonValue MuvedServer::HandleCreate(const JsonValue& request) {
  if (Status st = CheckAllowedFields(
          request, {"op", "table", "csv", "dims", "measures", "predicate"});
      !st.ok()) {
    return ErrorResponse(st);
  }
  std::string table_name;
  const std::string* csv = nullptr;
  std::string predicate;
  if (Status st = GetString(request, "table", &table_name); !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetStringRef(request, "csv", &csv); !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetString(request, "predicate", &predicate); !st.ok()) {
    return ErrorResponse(st);
  }
  if (table_name.empty()) {
    return ErrorResponse(Status::InvalidArgument("create: table is required"));
  }
  if (csv == nullptr || csv->empty()) {
    return ErrorResponse(Status::InvalidArgument("create: csv is required"));
  }
  data::Workload workload;
  if (Status st = GetStringArray(request, "dims", &workload.dimensions);
      !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetStringArray(request, "measures", &workload.measures);
      !st.ok()) {
    return ErrorResponse(st);
  }
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg};
  workload.default_predicate = predicate;
  // Validate the default predicate now, at create time — a typo in its
  // syntax or a column name must not surface only on the first
  // recommend.
  storage::PredicatePtr where;
  if (!predicate.empty()) {
    auto parsed = sql::ParseWhere(predicate);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    where = std::move(*parsed);
  }
  storage::CsvLoadStats load_stats;
  auto parsed_table = storage::ReadCsvString(*csv, {}, &load_stats);
  if (!parsed_table.ok()) return ErrorResponse(parsed_table.status());
  if (where != nullptr) {
    if (Status st = where->Bind(parsed_table->schema()); !st.ok()) {
      return ErrorResponse(st);
    }
  }
  // Dimensions and measures must name numeric columns: views bin
  // dimensions and aggregate measure moments.
  for (const std::string& dim : workload.dimensions) {
    auto col = parsed_table->ColumnByName(dim);
    if (!col.ok()) return ErrorResponse(col.status());
    if ((*col)->type() == storage::ValueType::kString) {
      return ErrorResponse(Status::InvalidArgument(
          "dims: column '" + dim + "' is a string column"));
    }
  }
  for (const std::string& mea : workload.measures) {
    auto col = parsed_table->ColumnByName(mea);
    if (!col.ok()) return ErrorResponse(col.status());
    if ((*col)->type() == storage::ValueType::kString) {
      return ErrorResponse(Status::InvalidArgument(
          "measures: column '" + mea + "' is a string column"));
    }
  }
  const int64_t rows = static_cast<int64_t>(parsed_table->num_rows());
  const int64_t cols = static_cast<int64_t>(parsed_table->num_columns());
  if (Status st = registry_.Create(table_name, std::move(*parsed_table),
                                   std::move(workload));
      !st.ok()) {
    return ErrorResponse(st);
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.tables_created;
    counters_.csv_parse_ms += load_stats.parse_ms;
  }
  JsonValue response = OkResponse("create");
  response.Set("table", JsonValue::String(table_name));
  response.Set("rows", JsonValue::Int(rows));
  response.Set("columns", JsonValue::Int(cols));
  response.Set("data_epoch", JsonValue::Int(1));
  return response;
}

JsonValue MuvedServer::HandleAppend(const JsonValue& request) {
  if (Status st = CheckAllowedFields(request, {"op", "table", "csv"});
      !st.ok()) {
    return ErrorResponse(st);
  }
  std::string table_name;
  const std::string* csv = nullptr;
  if (Status st = GetString(request, "table", &table_name); !st.ok()) {
    return ErrorResponse(st);
  }
  if (Status st = GetStringRef(request, "csv", &csv); !st.ok()) {
    return ErrorResponse(st);
  }
  if (table_name.empty()) {
    return ErrorResponse(Status::InvalidArgument("append: table is required"));
  }
  if (csv == nullptr || csv->empty()) {
    return ErrorResponse(Status::InvalidArgument("append: csv is required"));
  }
  auto appended = registry_.Append(table_name, *csv);
  if (!appended.ok()) return ErrorResponse(appended.status());
  JsonValue response = OkResponse("append");
  response.Set("table", JsonValue::String(table_name));
  response.Set("rows_appended", JsonValue::Int(appended->rows_appended));
  // A racing drop left nothing to patch: the appended version is
  // orphaned along with the table.
  if (!appended->patched) return response;
  const storage::IngestDeltaStats& ingest = appended->ingest;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.appends_executed;
    counters_.rows_ingested += appended->rows_appended;
    counters_.delta_merges += ingest.delta_merges;
    counters_.ingest_chunks_skipped += ingest.chunks_skipped;
    counters_.csv_parse_ms += appended->csv_parse_ms;
    counters_.catalog_append_ms += appended->catalog_append_ms;
    counters_.rows_copied += appended->rows_copied;
    counters_.delta_ms += appended->delta_ms;
  }
  response.Set("rows_total", JsonValue::Int(appended->rows_total));
  response.Set("data_epoch", JsonValue::Int(static_cast<int64_t>(
                                 appended->data_epoch)));
  response.Set("delta_merges", JsonValue::Int(ingest.delta_merges));
  response.Set("ingest_rows", JsonValue::Int(ingest.rows_scanned));
  response.Set("chunks_skipped", JsonValue::Int(ingest.chunks_skipped));
  return response;
}

JsonValue MuvedServer::HandleDrop(const JsonValue& request) {
  if (Status st = CheckAllowedFields(request, {"op", "table"}); !st.ok()) {
    return ErrorResponse(st);
  }
  std::string table_name;
  if (Status st = GetString(request, "table", &table_name); !st.ok()) {
    return ErrorResponse(st);
  }
  if (table_name.empty()) {
    return ErrorResponse(Status::InvalidArgument("drop: table is required"));
  }
  if (Status st = registry_.Drop(table_name); !st.ok()) {
    return ErrorResponse(st);
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.tables_dropped;
  }
  JsonValue response = OkResponse("drop");
  response.Set("table", JsonValue::String(table_name));
  return response;
}

MuvedServer::Admission MuvedServer::AdmitRequest(double remaining_deadline_ms,
                                                 double* queue_ms,
                                                 int64_t* queue_depth) {
  common::Stopwatch timer;
  Admission outcome;
  {
    std::unique_lock<std::mutex> lock(gate_mu_);
    const auto admit = [&]() -> Admission {
      if (stopping_.load(std::memory_order_acquire)) {
        return Admission::kRejectedStopping;
      }
      if (in_flight_ < options_.max_concurrent) {
        ++in_flight_;
        *queue_ms = timer.ElapsedMillis();
        *queue_depth = queued_;
        return Admission::kAdmitted;
      }
      // All slots busy: the request would have to queue.  Shed NOW when
      // queuing cannot end well — no waiting room left, or the request's
      // own deadline is already spent (it would only expire further in
      // line; the client should back off and retry instead).
      if (queued_ >= options_.max_queue) return Admission::kShedQueueFull;
      const bool bounded = remaining_deadline_ms >= 0.0;
      if (bounded && remaining_deadline_ms == 0.0) {
        return Admission::kShedDeadline;
      }
      ++queued_;
      {
        std::lock_guard<std::mutex> clock(counters_mu_);
        if (queued_ > counters_.queue_peak_depth) {
          counters_.queue_peak_depth = queued_;
        }
      }
      const auto slot_free = [this] {
        return stopping_.load(std::memory_order_acquire) ||
               in_flight_ < options_.max_concurrent;
      };
      bool woke = true;
      if (options_.queue_timeout_ms > 0) {
        woke = gate_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.queue_timeout_ms),
            slot_free);
      } else {
        gate_cv_.wait(lock, slot_free);
      }
      --queued_;
      if (stopping_.load(std::memory_order_acquire)) {
        return Admission::kRejectedStopping;
      }
      if (!woke) return Admission::kShedQueueTimeout;
      ++in_flight_;
      *queue_ms = timer.ElapsedMillis();
      *queue_depth = queued_;
      return Admission::kAdmitted;
    };
    outcome = admit();
  }
  // Offered/outcome counters move together outside gate_mu_, so the soak
  // harness reads an exactly balanced ledger at any quiescent point.
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.requests_offered;
  switch (outcome) {
    case Admission::kAdmitted:
      ++counters_.requests_admitted;
      break;
    case Admission::kShedQueueFull:
      ++counters_.requests_shed_queue_full;
      break;
    case Admission::kShedDeadline:
      ++counters_.requests_shed_deadline;
      break;
    case Admission::kShedQueueTimeout:
      ++counters_.requests_shed_timeout;
      break;
    case Admission::kRejectedStopping:
      ++counters_.requests_rejected_stopping;
      break;
  }
  return outcome;
}

void MuvedServer::ReleaseRequest() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    --in_flight_;
  }
  gate_cv_.notify_one();
}

int64_t MuvedServer::RetryAfterHintMs() const {
  // The honest hint is the gate's own patience: a client that waits at
  // least one queue-timeout window arrives after the current cohort has
  // either drained or been shed.  Deterministic (configuration-only), so
  // the overloaded frame is byte-stable for a fixed configuration.
  return std::max(1, options_.queue_timeout_ms);
}

int64_t MuvedServer::UptimeMs() const {
  if (!started_) return 0;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - started_at_)
      .count();
}

void MuvedServer::RequestStop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  stop_requested_ = true;
  stop_cv_.notify_all();
}

void MuvedServer::Wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_ || stopped_; });
}

void MuvedServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  stopping_.store(true, std::memory_order_release);
  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  // 2. Wake admission waiters (they answer `cancelled`).
  gate_cv_.notify_all();
  // 3. Drain sessions: SHUT_RD unblocks pending frame reads without
  //    cutting off in-flight responses; trip any active search's cancel
  //    token so long deadlines end at the next work boundary.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      {
        std::lock_guard<std::mutex> cancel_lock(conn->cancel_mu);
        if (conn->active_cancel != nullptr) conn->active_cancel->Cancel();
      }
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  // 4. Join every handler.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

MuvedServer::Counters MuvedServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

}  // namespace muve::server
