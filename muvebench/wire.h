// The client side of a benchmark run: launches muved, sets up the
// workload's tables, drives closed-loop sessions through the repo's
// client path (server::DialLocal + server::RoundTrip, no retries) and
// logs every exchange for the metrics and for the answer check.

#ifndef MUVEBENCH_WIRE_H_
#define MUVEBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/json.h"
#include "streams.h"

namespace muvebench {

enum class Phase { kStream, kHitProbe, kFreshProbe };

// One request/response exchange.
struct Event {
  int session = 0;
  Phase phase = Phase::kStream;
  bool is_append = false;
  bool expect_hit = false;  // an exact repeat: the result cache answers
  bool fresh = false;       // first recommend after this session's append
  JsonValue request;
  std::string frame;  // request.Write(): the bytes sent
  int64_t send_ns = 0;
  int64_t reply_ns = 0;
  bool ok = false;  // transport succeeded and the reply said ok:true
  std::string error;
  JsonValue response;
  // Recommends: the table versions the server may have read, as counts
  // of successful appends published before it (see AssignVersions).
  int version_min = 0;
  int version_max = 0;

  double latency_ms() const { return (reply_ns - send_ns) / 1e6; }
};

struct WireRun {
  std::vector<JsonValue> load_frames;  // the setup's create/append frames
  std::vector<double> setup_seconds;
  std::vector<double> session_seconds;  // each stream session's busy time
  std::vector<Event> events;  // in send order
  // `stats` op replies right after the stream and at the end of the run.
  JsonValue stream_stats;
  JsonValue end_stats;
  std::vector<double> ping_ms;  // idle pings after the stream
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct WireOptions {
  std::string muved_binary;
  uint64_t seed = 1;
  // Runs this many setups (the plan's count, or 1 for a traced run).
  int setups = 1;
  bool measure_pings = false;
};

muve::common::Result<WireRun> RunWire(const WorkloadPlan& plan,
                                      const WireOptions& options);

// Fills version_min / version_max of every recommend: appends are
// serialized server-side, so a recommend read the table after at least
// the appends whose reply arrived before it was sent, and at most those
// sent before its reply arrived.
void AssignVersions(std::vector<Event>* events);

}  // namespace muvebench

#endif  // MUVEBENCH_WIRE_H_
