// muved — the MuVE recommendation daemon.
//
//   $ muved --port=7171 --max-concurrent=4 --preload=nba,diab
//
// Serves length-prefixed JSON frames over 127.0.0.1 TCP (protocol in
// src/server/protocol.h; field tables in README "muved").  Runs until
// SIGINT/SIGTERM or a client's {"op":"shutdown"} request, then drains
// in-flight requests and exits 0.
//
// Flags (all numeric values parsed strictly — garbage exits 2):
//   --port=N            TCP port on 127.0.0.1 (default 7171; 0 = pick an
//                       ephemeral port and print it)
//   --max-concurrent=N  admission cap: Recommend() calls executing at
//                       once (default 4); excess requests queue
//   --max-queue=N       waiting room at the admission gate (default 64;
//                       0 = shed immediately when all slots are busy)
//   --queue-timeout-ms=N
//                       longest one request may queue before being shed
//                       with an `unavailable` + retry_after_ms frame
//                       (default 1000; 0 = wait indefinitely)
//   --idle-timeout-ms=N drop a session silent between frames for this
//                       long (default 300000 = 5 min; 0 = never)
//   --frame-timeout-ms=N
//                       once a frame starts, it must complete within
//                       this window — anti-slowloris (default 10000;
//                       0 = never)
//   --write-timeout-ms=N
//                       budget for writing one response to a peer that
//                       won't read (default 10000; 0 = block forever)
//   --max-connections=N accept-time cap on live sessions; excess
//                       connections get one `unavailable` frame and a
//                       close (default 256; 0 = unlimited)
//   --max-threads=N     upper bound on a request's "threads" field
//                       (default 8)
//   --preload=a,b       build these datasets' recommenders before
//                       accepting traffic (diab|nba|toy), so first
//                       requests don't pay cold-build latency
//   --no-shutdown-op    refuse {"op":"shutdown"} (signals only)
//   --result-cache-entries=N
//                       LRU cap on cached top-k responses (default 256;
//                       0 disables the result cache).  Recommenders, their
//                       score memos and the base-histogram store are
//                       always shared across requests (DESIGN.md §13)

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "common/parse.h"
#include "common/simd/simd.h"
#include "common/status.h"
#include "common/string_util.h"
#include "server/muved_server.h"
#include "server/protocol.h"

namespace {

using muve::common::Status;

struct Flags {
  int port = 7171;
  int max_concurrent = 4;
  // Production overload/lifecycle defaults.  The library's
  // ServerOptions default to permissive (unbounded waits, no timeouts)
  // for embedders; the daemon ships with teeth.
  int max_queue = 64;
  int queue_timeout_ms = 1000;
  int idle_timeout_ms = 300000;
  int frame_timeout_ms = 10000;
  int write_timeout_ms = 10000;
  int max_connections = 256;
  int max_threads = 8;
  std::string preload;
  bool allow_shutdown_op = true;
  int result_cache_entries = 256;
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
                           "--port", value_of("--port="), 0, 65535));
    } else if (has("--max-concurrent=")) {
      MUVE_ASSIGN_OR_RETURN(flags->max_concurrent,
                            muve::common::ParseFlagInt64(
                                "--max-concurrent",
                                value_of("--max-concurrent="), 1, 1024));
    } else if (has("--max-queue=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->max_queue,
          muve::common::ParseFlagInt64("--max-queue", value_of("--max-queue="),
                                       0, 1 << 20));
    } else if (has("--queue-timeout-ms=")) {
      MUVE_ASSIGN_OR_RETURN(flags->queue_timeout_ms,
                            muve::common::ParseFlagInt64(
                                "--queue-timeout-ms",
                                value_of("--queue-timeout-ms="), 0, 86400000));
    } else if (has("--idle-timeout-ms=")) {
      MUVE_ASSIGN_OR_RETURN(flags->idle_timeout_ms,
                            muve::common::ParseFlagInt64(
                                "--idle-timeout-ms",
                                value_of("--idle-timeout-ms="), 0, 86400000));
    } else if (has("--frame-timeout-ms=")) {
      MUVE_ASSIGN_OR_RETURN(flags->frame_timeout_ms,
                            muve::common::ParseFlagInt64(
                                "--frame-timeout-ms",
                                value_of("--frame-timeout-ms="), 0, 86400000));
    } else if (has("--write-timeout-ms=")) {
      MUVE_ASSIGN_OR_RETURN(flags->write_timeout_ms,
                            muve::common::ParseFlagInt64(
                                "--write-timeout-ms",
                                value_of("--write-timeout-ms="), 0, 86400000));
    } else if (has("--max-connections=")) {
      MUVE_ASSIGN_OR_RETURN(flags->max_connections,
                            muve::common::ParseFlagInt64(
                                "--max-connections",
                                value_of("--max-connections="), 0, 1 << 20));
    } else if (has("--max-threads=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->max_threads,
          muve::common::ParseFlagInt64("--max-threads",
                                       value_of("--max-threads="), 1, 4096));
    } else if (has("--preload=")) {
      flags->preload = value_of("--preload=");
    } else if (arg == "--no-shutdown-op") {
      flags->allow_shutdown_op = false;
    } else if (has("--result-cache-entries=")) {
      MUVE_ASSIGN_OR_RETURN(
          flags->result_cache_entries,
          muve::common::ParseFlagInt64("--result-cache-entries",
                                       value_of("--result-cache-entries="), 0,
                                       1 << 20));
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (Status st = ParseFlags(argc, argv, &flags); !st.ok()) {
    std::cerr << st.message() << "\n\nSee the header of tools/muved.cpp for "
              << "flag documentation.\n";
    return 2;
  }

  muve::server::ServerOptions options;
  options.port = flags.port;
  options.max_concurrent = flags.max_concurrent;
  options.max_queue = flags.max_queue;
  options.queue_timeout_ms = flags.queue_timeout_ms;
  options.idle_timeout_ms = flags.idle_timeout_ms;
  options.frame_timeout_ms = flags.frame_timeout_ms;
  options.write_timeout_ms = flags.write_timeout_ms;
  options.max_connections = flags.max_connections;
  options.max_request_threads = flags.max_threads;
  options.allow_shutdown_op = flags.allow_shutdown_op;
  options.result_cache_entries =
      static_cast<size_t>(flags.result_cache_entries);
  muve::server::MuvedServer server(options);

  // A client may vanish between its request and our response; writes go
  // through send(MSG_NOSIGNAL) in the protocol layer, and SIGPIPE is
  // ignored here too so no future write path can kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  // Block SIGINT/SIGTERM in every thread the server will spawn, then
  // collect them synchronously below — no async-signal-unsafe handler
  // code, and worker threads never steal the signal.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  if (Status st = server.Start(); !st.ok()) {
    std::cerr << "muved: " << st.ToString() << "\n";
    return muve::common::ExitCodeForStatus(st.code());
  }
  std::cout << "muved listening on 127.0.0.1:" << server.port()
            << " (max_concurrent=" << flags.max_concurrent
            << ", simd=" << muve::common::simd::ActiveLevelName() << ")\n"
            << std::flush;

  // Warm the registry before traffic by issuing a real `use` through a
  // loopback connection — same code path as a client, so the preload
  // list is validated exactly like client input.
  if (!flags.preload.empty()) {
    auto fd = muve::server::DialLocal(server.port());
    if (!fd.ok()) {
      // --preload promised warm datasets; starting cold anyway would
      // silently break that contract.  Fail loudly, like a bad dataset.
      std::cerr << "muved: preload connection failed: "
                << fd.status().ToString() << "\n";
      server.Stop();
      return 2;
    }
    for (const auto& name : muve::common::Split(flags.preload, ',')) {
      auto request = muve::server::JsonValue::Object();
      request.Set("op", muve::server::JsonValue::String("use"));
      request.Set("dataset", muve::server::JsonValue::String(
                                 std::string(muve::common::Trim(name))));
      auto response = muve::server::RoundTrip(*fd, request);
      const muve::server::JsonValue* ok =
          response.ok() ? response->Find("ok") : nullptr;
      if (!response.ok() || ok == nullptr || !ok->bool_value()) {
        std::cerr << "muved: preload of '" << std::string(name)
                  << "' failed\n";
        ::close(*fd);
        server.Stop();
        return 2;
      }
      std::cout << "muved: preloaded " << std::string(name) << "\n"
                << std::flush;
    }
    ::close(*fd);
  }

  // Wait for a signal OR a protocol shutdown request, whichever first.
  // The signal waiter runs in a side thread so both wake paths converge
  // on server.Wait().  `exiting` distinguishes a real signal from the
  // self-raised SIGTERM that unblocks sigwait when shutdown came over
  // the wire.
  std::atomic<bool> exiting{false};
  std::thread signal_thread([&signals, &server, &exiting] {
    int sig = 0;
    // sigwait returns EINTR-free; a failure here means the set was
    // empty, which cannot happen.
    if (sigwait(&signals, &sig) == 0 && !exiting.load()) {
      std::cout << "muved: caught " << (sig == SIGINT ? "SIGINT" : "SIGTERM")
                << ", draining\n"
                << std::flush;
      server.RequestStop();
    }
  });

  server.Wait();
  server.Stop();
  // Unblock the signal thread if shutdown came over the wire: raise the
  // signal it is waiting for.
  exiting.store(true);
  pthread_kill(signal_thread.native_handle(), SIGTERM);
  signal_thread.join();

  const auto counters = server.counters();
  const int64_t sheds = counters.requests_shed_queue_full +
                        counters.requests_shed_timeout +
                        counters.requests_shed_deadline;
  std::cout << "muved: stopped cleanly (connections="
            << counters.connections_accepted
            << " requests=" << counters.requests_served
            << " recommends=" << counters.recommends_executed
            << " errors=" << counters.errors_returned
            << " sheds=" << sheds
            << " conns_shed=" << counters.connections_shed << ")\n";
  return 0;
}
