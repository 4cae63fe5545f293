// muvebench — the repo benchmark's client program (run it through run.py).
//
//   muvebench --workload=<paper-explore|scale-churn|scale-ingest>
//             --seed=N --seconds=N --trace=0|1 --muved=PATH --out-dir=DIR
//
// --trace 0 measures what a muved client waits for and prints the
// end-to-end metrics; --trace 1 replays the run's stream in-process with
// spans around every layer call and prints the per-layer metrics.  Both
// check every served top-k against Recommender::Recommend in this
// process.  The last stdout line is the result object; the report goes
// to stderr and, with the spans, to DIR/reports.

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "mirror.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"
#include "wire.h"

namespace muvebench {
namespace {

using muve::common::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string muved;
  std::string out_dir = ".";
};

Status ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      MUVE_ASSIGN_OR_RETURN(int64_t seed, muve::common::ParseFlagInt64(
                                              "--seed", value, 0, INT64_MAX));
      args->seed = static_cast<uint64_t>(seed);
    } else if (arg == "--seconds") {
      MUVE_ASSIGN_OR_RETURN(args->seconds, muve::common::ParseFlagInt64(
                                               "--seconds", value, 1, 60));
    } else if (arg == "--trace") {
      MUVE_ASSIGN_OR_RETURN(int64_t trace, muve::common::ParseFlagInt64(
                                               "--trace", value, 0, 1));
      args->trace = trace == 1;
    } else if (arg == "--muved") {
      args->muved = value;
    } else if (arg == "--out-dir") {
      args->out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (args->muved.empty()) {
    return Status::InvalidArgument("--muved is required");
  }
  return Status::OK();
}

// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    for (const auto& [name, vu] : items) {
      JsonValue m = JsonValue::Object();
      m.Set("value", JsonValue::Double(vu.first));
      m.Set("unit", JsonValue::String(vu.second));
      out.Set(name, std::move(m));
    }
    return out;
  }
};

int64_t StatInt(const JsonValue& stats, const char* object, const char* key) {
  const JsonValue* scope = object == nullptr ? &stats : stats.Find(object);
  const JsonValue* v = scope == nullptr ? nullptr : scope->Find(key);
  return v != nullptr && v->is_int() ? v->int_value() : 0;
}

// Which logged recommends feed which end-to-end metric.
struct Samples {
  std::vector<size_t> misses;  // recommend_p50/tail: computed, not fresh
  std::vector<double> miss_ms;
  std::vector<double> hit_ms;
  std::vector<double> append_ms;
  std::vector<double> fresh_ms;
  // Completed stream recommends per second, summed over sessions.
  double rps = 0.0;
};

Samples Classify(const WorkloadPlan& plan, const WireRun& run) {
  Samples s;
  const Phase hit_phase =
      plan.hit_repeats > 0 ? Phase::kHitProbe : Phase::kStream;
  const Phase fresh_phase =
      plan.fresh_cycles > 0 ? Phase::kFreshProbe : Phase::kStream;
  const std::vector<Event>& events = run.events;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (!e.ok) continue;
    if (e.phase == Phase::kStream && !e.is_append) {
      s.rps += 1.0 / run.session_seconds[static_cast<size_t>(e.session)];
    }
    if (e.is_append) {
      if (e.phase == fresh_phase) s.append_ms.push_back(e.latency_ms());
    } else if (e.fresh) {
      if (e.phase != fresh_phase) continue;
      // From sending the session's append to the grown table's answer.
      for (size_t j = i; j-- > 0;) {
        if (events[j].is_append && events[j].session == e.session &&
            events[j].phase == e.phase) {
          s.fresh_ms.push_back((e.reply_ns - events[j].send_ns) / 1e6);
          break;
        }
      }
    } else if (e.expect_hit) {
      if (e.phase == hit_phase) s.hit_ms.push_back(e.latency_ms());
    } else if (e.phase == Phase::kStream) {
      s.misses.push_back(i);
      s.miss_ms.push_back(e.latency_ms());
    }
  }
  return s;
}

void AddEndToEnd(const WireRun& run, const Samples& s, Metrics* m,
                 std::ostream& report) {
  const Tail miss_tail = TailOf(s.miss_ms);
  const Tail fresh_tail = TailOf(s.fresh_ms);
  m->Add("setup_s", Median(run.setup_seconds), "s");
  m->Add("recommend_p50_ms", Median(s.miss_ms), "ms");
  m->Add("recommend_tail_ms", miss_tail.value, "ms");
  m->Add("recommend_hit_p50_ms", Median(s.hit_ms), "ms");
  m->Add("recommend_rps", s.rps, "1/s");
  m->Add("append_p50_ms", Median(s.append_ms), "ms");
  m->Add("fresh_p50_ms", Median(s.fresh_ms), "ms");
  m->Add("fresh_tail_ms", fresh_tail.value, "ms");
  m->Add("peak_rss_mb",
         StatInt(run.end_stats, "memory", "peak_rss_bytes") / 1048576.0, "MB");
  report << "samples: recommend misses " << s.miss_ms.size() << " (tail = p"
         << miss_tail.percentile << ", " << miss_tail.beyond
         << " beyond), hits " << s.hit_ms.size() << ", appends "
         << s.append_ms.size() << ", fresh " << s.fresh_ms.size()
         << " (tail = p" << fresh_tail.percentile << ", " << fresh_tail.beyond
         << " beyond), setups " << run.setup_seconds.size() << "\n"
         << "peak RSS after the stream: "
         << StatInt(run.stream_stats, "memory", "peak_rss_bytes") / 1048576.0
         << " MB\n"
         << "ops_failed_ratio: " << run.failed << "/" << run.attempted << "\n";
}

// Per-layer metrics from the traced replay (see BENCHMARK.json and
// muvebench/interactions.json for what each should move).
void AddPerLayer(const WireRun& run, const Samples& s, const Replay& untraced,
                 const Replay& traced, Metrics* m, std::ostream& report) {
  // Span self time totals (ms) by span name, over every op, over computed
  // recommends and over appends.
  std::map<std::string, double> all_ms, recommend_ms, append_ms;
  std::map<std::string, double> layer_self_ms;  // computed recommends
  double sides = 0, sides_cached = 0, build_rows = 0, chunks = 0;
  double candidates = 0, fully_probed = 0, target = 0, comparison = 0,
         deviation = 0, accuracy = 0;
  double rows_appended = 0, ingest_rows = 0;
  int64_t ops = 0, computed = 0, appends = 0;
  for (size_t i = 0; i < traced.answers.size(); ++i) {
    const Answer& a = traced.answers[i];
    if (a.spans.empty()) continue;
    ++ops;
    const bool append = run.events[i].is_append;
    appends += append ? 1 : 0;
    const std::vector<int64_t> self = SelfTimesNs(a.spans);
    for (size_t k = 0; k < a.spans.size(); ++k) {
      const std::string& name = a.spans[k].name;
      const double ms = self[k] / 1e6;
      all_ms[name] += ms;
      if (append) append_ms[name] += ms;
      if (a.computed) {
        recommend_ms[name] += ms;
        layer_self_ms[LayerOf(name)] += ms;
      }
    }
    rows_appended += a.rows_appended;
    ingest_rows += a.ingest_rows;
    if (!a.computed) continue;
    ++computed;
    sides += a.sides;
    sides_cached += a.sides_cached;
    build_rows += a.build_rows + a.exec.build_rows_scanned;
    chunks += a.filter_chunks_skipped;
    candidates += a.exec.candidates_considered;
    fully_probed += a.exec.fully_probed;
    target += a.exec.target_time_ms;
    comparison += a.exec.comparison_time_ms;
    deviation += a.exec.deviation_time_ms;
    accuracy += a.exec.accuracy_time_ms;
  }
  auto per = [](double total, int64_t n) { return n > 0 ? total / n : 0.0; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // The recommend_p50_ms population (misses), replayed.
  std::vector<double> traced_ms, untraced_ms;
  for (size_t i : s.misses) {
    if (traced.answers[i].computed) {
      traced_ms.push_back(traced.answers[i].total_ms);
    }
    if (untraced.answers[i].computed) {
      untraced_ms.push_back(untraced.answers[i].total_ms);
    }
  }
  const double ping = Median(run.ping_ms);
  const double p50 = Median(s.miss_ms);
  const double replay_p50 = Median(traced_ms);
  const int64_t hits = StatInt(run.stream_stats, nullptr, "result_cache_hits");
  const int64_t executed =
      StatInt(run.stream_stats, nullptr, "recommends_executed");

  m->Add("server.ping_rtt_ms", ping, "ms");
  m->Add("server.json_parse_ms", per(all_ms["server.json_parse"], ops), "ms");
  m->Add("server.json_write_ms", per(all_ms["server.json_write"], ops), "ms");
  m->Add("server.result_cache_hit_ratio",
         ratio(static_cast<double>(hits), static_cast<double>(hits + executed)),
         "ratio");
  m->Add("sql.parse_ms", per(recommend_ms["sql.parse"], computed), "ms");
  m->Add("storage.filter_ms", per(recommend_ms["storage.filter"], computed),
         "ms");
  m->Add("storage.chunks_skipped", per(chunks, computed), "count");
  m->Add("storage.selection_cache_hit_ratio",
         ratio(traced.selection.hits, traced.selection.lookups), "ratio");
  m->Add("storage.build_rows_scanned", per(build_rows, computed), "rows");
  m->Add("storage.fused_build_ms",
         per(recommend_ms["storage.fused_build"], computed), "ms");
  m->Add("storage.base_cache_hit_ratio", ratio(sides_cached, sides), "ratio");
  m->Add("storage.csv_parse_ms", per(append_ms["storage.csv_parse"], appends),
         "ms");
  m->Add("storage.catalog_append_ms",
         per(append_ms["storage.catalog_append"], appends), "ms");
  m->Add("storage.ingest_delta_ms",
         per(append_ms["storage.ingest_delta"], appends), "ms");
  m->Add("storage.ingest_rows_per_appended_row",
         ratio(ingest_rows, rows_appended), "ratio");
  m->Add("core.create_ms", per(recommend_ms["core.create"], computed), "ms");
  m->Add("core.recommend_ms", per(recommend_ms["core.recommend"], computed),
         "ms");
  m->Add("core.target_ms", per(target, computed), "ms");
  m->Add("core.comparison_ms", per(comparison, computed), "ms");
  m->Add("core.deviation_ms", per(deviation, computed), "ms");
  m->Add("core.accuracy_ms", per(accuracy, computed), "ms");
  m->Add("core.candidates", per(candidates, computed), "count");
  m->Add("core.fully_probed_ratio", ratio(fully_probed, candidates), "ratio");
  m->Add("core.us_per_candidate",
         ratio(recommend_ms["core.recommend"] * 1000.0, candidates), "us");
  for (const char* layer : {"bench", "server", "sql", "storage", "core"}) {
    m->Add(std::string(layer) + ".self_ms", per(layer_self_ms[layer], computed),
           "ms");
  }
  m->Add("trace.recommend_p50_ms", p50, "ms");
  m->Add("trace.replay_p50_ms", replay_p50, "ms");
  m->Add("trace.attributed_share", ratio(replay_p50 + ping, p50), "ratio");
  m->Add("trace.unattributed_ms", p50 - replay_p50 - ping, "ms");
  m->Add("trace.overhead_ms", replay_p50 - Median(untraced_ms), "ms");
  report << "traced replay: " << ops << " ops, " << computed
         << " computed recommends, " << appends << " appends; "
         << traced_ms.size() << " of " << s.misses.size()
         << " stream misses computed in the replay\n";
}

int Run(const Args& args) {
  auto plan = PlanFor(args.workload, args.seconds);
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 2;
  }
  if (args.trace) {
    // The traced run replays its stream twice on one thread; half the
    // stream keeps it as short as an untraced run.
    plan->requests = std::max(20, plan->requests / 2);
    plan->appends = std::max(10, plan->appends / 2);
  }
  WireOptions options;
  options.muved_binary = args.muved;
  options.seed = args.seed;
  options.setups = args.trace ? 1 : plan->setups;
  options.measure_pings = args.trace;
  auto run = RunWire(*plan, options);
  if (!run.ok()) {
    std::cerr << "muvebench: " << run.status().ToString() << "\n";
    return 1;
  }
  for (const Event& e : run->events) {
    if (!e.ok) std::cerr << "failed op: " << e.error.substr(0, 300) << "\n";
  }
  // The answer check: parallel when untraced, serial (clean spans) when
  // traced, where it runs once untraced and once traced.
  auto checked = ReplayEvents(run->load_frames, run->events,
                              args.trace ? 1 : 4, false);
  if (!checked.ok()) {
    std::cerr << "muvebench: " << checked.status().ToString() << "\n";
    return 1;
  }
  std::vector<std::string> mismatches = checked->mismatches;
  Replay traced;
  if (args.trace) {
    auto replay = ReplayEvents(run->load_frames, run->events, 1, true);
    if (!replay.ok()) {
      std::cerr << "muvebench: " << replay.status().ToString() << "\n";
      return 1;
    }
    traced = *std::move(replay);
    mismatches.insert(mismatches.end(), traced.mismatches.begin(),
                      traced.mismatches.end());
  }
  if (plan->scale_table) {
    if (Status st = CheckColdReload(run->events); !st.ok()) {
      mismatches.push_back(st.message());
    }
  }
  for (const std::string& mismatch : mismatches) {
    std::cerr << "WRONG ANSWER: " << mismatch << "\n";
  }

  const Samples samples = Classify(*plan, *run);
  Metrics metrics;
  std::ostringstream report;
  report << "== " << args.workload << " seed=" << args.seed
         << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  if (args.trace) {
    AddPerLayer(*run, samples, *checked, traced, &metrics, report);
  } else {
    AddEndToEnd(*run, samples, &metrics, report);
  }
  for (const auto& [name, vu] : metrics.items) {
    report << "  " << name << " = " << vu.first << " " << vu.second << "\n";
  }
  std::cerr << report.str();

  const std::string dir = args.out_dir + "/reports";
  ::mkdir(dir.c_str(), 0755);
  const std::string stem = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  std::ofstream(stem + ".txt") << report.str();
  std::ofstream log(stem + ".events.tsv");
  log << "session\tphase\top\tsent_ms\tlatency_ms\tok\tversions\n";
  const int64_t t0 = run->events.empty() ? 0 : run->events.front().send_ns;
  for (const Event& e : run->events) {
    log << e.session << '\t' << static_cast<int>(e.phase) << '\t'
        << (e.is_append ? "append" : e.expect_hit ? "hit"
                                   : e.fresh      ? "fresh"
                                                  : "recommend")
        << '\t' << (e.send_ns - t0) / 1e6 << '\t' << e.latency_ms() << '\t'
        << e.ok << '\t' << e.version_min << ".." << e.version_max << '\n';
  }
  if (args.trace) {
    std::ofstream spans(stem + ".spans.jsonl");
    for (const Answer& a : traced.answers) WriteSpans(a.spans, spans);
  }

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(mismatches.empty()));
  result.Set("attempted", JsonValue::Int(run->attempted));
  result.Set("failed", JsonValue::Int(run->failed));
  result.Set("metrics", metrics.ToJson());
  std::cout << result.Write() << std::endl;
  return mismatches.empty() ? 0 : 1;
}

}  // namespace
}  // namespace muvebench

int main(int argc, char** argv) {
  muvebench::Args args;
  if (auto st = muvebench::ParseArgs(argc, argv, &args); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  return muvebench::Run(args);
}
