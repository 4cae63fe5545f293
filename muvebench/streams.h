// The benchmark's workloads and their deterministic request streams.
//
// Every request a run sends is generated here from the workload seed;
// muved sees only the resulting frames.  A session's stream depends on
// (workload, seed, session index) alone, so one seed always yields
// byte-identical frames.

#ifndef MUVEBENCH_STREAMS_H_
#define MUVEBENCH_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/json.h"

namespace muvebench {

using muve::server::JsonValue;

enum class WorkloadKind { kPaperExplore, kScaleChurn, kScaleIngest };

// Scale-table geometry shared by the two scale workloads.
inline constexpr size_t kScaleRows = 1'000'000;      // loaded at setup
inline constexpr size_t kScaleLoadBatch = 250'000;   // rows per setup frame
inline constexpr const char* kScaleTable = "scale";

// The i-th (0-based) append after setup covers scale rows
// [ScaleAppendBegin(i), ScaleAppendBegin(i + 1)): 0.5% of the table
// plus 13 rows per earlier append.  No append size equals the sum of any
// run of other append sizes.  With equal sizes muved serves wrong top-k
// under concurrent appends and reads: its base-histogram staleness guard
// trusts an entry whose row count matches the table's, and an entry that
// double-counts one append while missing the next has that same count
// (see NOTES.md).
size_t ScaleAppendBegin(size_t i);

// What one workload run does, fixed by its name and --seconds.
struct WorkloadPlan {
  WorkloadKind kind = WorkloadKind::kPaperExplore;
  std::string name;
  // Closed-loop sessions of the measured stream (one connection each).
  int sessions = 0;
  // Streams are bound by count, sized from --seconds so that a run of
  // the seed measures about that long: `requests` per session, whole
  // cycles of the stratified draws; on scale-ingest, `appends` writer
  // cycles while the readers run until the writer is done, so the table
  // grows through the same sizes in every run.
  int requests = 0;
  int appends = 0;
  // `muved --preload=` list (paper tables) or the scale table loaded
  // through create + append frames.
  std::string preload;
  bool scale_table = false;
  // Setups per run; setup_s is their median.
  int setups = 1;
  // Post-stream probes for the metrics the stream itself does not
  // produce: exact repeats per session (result-cache hits) and
  // append-then-recommend cycles on `probe_table`.
  int hit_repeats = 0;
  int fresh_cycles = 0;
  std::string probe_table;
};

muve::common::Result<WorkloadPlan> PlanFor(const std::string& workload,
                                           int seconds);

// One request of a stream.
struct Request {
  JsonValue body;
  bool is_append = false;
  // An exact repeat of one of the session's earlier requests: the
  // server's result cache answers it.
  bool repeat = false;
  // A recommend sent right after this session's own append (the first
  // read of the grown table).
  bool fresh = false;
};

// The frames that load the scale table at setup: one `create` and the
// appends that bring it to kScaleRows rows.
std::vector<JsonValue> ScaleLoadFrames();

// `append` frame for scale rows [begin, end).
JsonValue ScaleAppendFrame(size_t begin, size_t end);

// `append` frame carrying NBA rows (re-appended copies of the built-in
// table's rows), for the paper workload's freshness probe.
JsonValue NbaAppendFrame(int cycle);

// The recommend a writer sends after an append: the table's default
// predicate and the session defaults.
JsonValue DefaultRecommend(const std::string& table);

// An infinite deterministic stream for one session of a workload.
class SessionStream {
 public:
  SessionStream(WorkloadKind kind, uint64_t seed, int session, int sessions);
  Request Next();

 private:
  Request NextPaper();
  Request NextChurn();
  Request NextIngestWriter();
  Request NextIngestReader();
  // Draws weights on the simplex and k, stratified over cycles of
  // kCycle requests so short runs still cover the space evenly.
  void Refill();
  void AddSearchParams(JsonValue* body);

  static constexpr size_t kCycle = 20;

  WorkloadKind kind_;
  int session_;
  int sessions_;
  muve::common::Rng rng_;
  size_t position_ = 0;  // within the current cycle
  // paper: (dataset, scheme) cards; churn: (day-range length, region).
  std::vector<int> deck_;
  std::vector<int> predicate_deck_;  // paper
  std::vector<int> k_deck_;
  std::vector<int> repeat_deck_;    // 1 = repeat at this position
  std::vector<double> u_, v_;       // stratified simplex coordinates
  std::vector<JsonValue> history_;  // computed requests, newest last
  // scale-churn: predicates this session has sent (sessions never
  // collide: session s only starts day ranges at days = s mod sessions).
  std::set<std::string> churn_used_;
  // scale-ingest writer: appends sent so far; next op is an append when
  // even.
  size_t writer_ops_ = 0;
};

}  // namespace muvebench

#endif  // MUVEBENCH_STREAMS_H_
