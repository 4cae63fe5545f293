#include "core/exec_stats.h"

#include <sstream>

#include "common/string_util.h"

namespace muve::core {

void ExecCompleteness::Merge(const ExecCompleteness& other) {
  degraded = degraded || other.degraded;
  views_fully_searched += other.views_fully_searched;
  bins_pruned_by_deadline += other.bins_pruned_by_deadline;
  // Keep the first (already-recorded) cause; adopt the other's only when
  // this block has none.
  if (status == common::StatusCode::kOk) status = other.status;
}

void ExecStats::Merge(const ExecStats& other) {
  target_queries += other.target_queries;
  comparison_queries += other.comparison_queries;
  deviation_evals += other.deviation_evals;
  accuracy_evals += other.accuracy_evals;
  rows_scanned += other.rows_scanned;
  build_rows_scanned += other.build_rows_scanned;
  probe_rows_scanned += other.probe_rows_scanned;
  base_builds += other.base_builds;
  base_cache_hits += other.base_cache_hits;
  fused_builds += other.fused_builds;
  morsels_dispatched += other.morsels_dispatched;
  fused_coalesced += other.fused_coalesced;
  memo_hits += other.memo_hits;
  memo_fills += other.memo_fills;
  chunks_skipped += other.chunks_skipped;
  delta_merges += other.delta_merges;
  ingest_rows += other.ingest_rows;
  predicate_rows_filtered += other.predicate_rows_filtered;
  setup_time_ms += other.setup_time_ms;
  queue_ms += other.queue_ms;
  if (other.queue_depth_on_admit > queue_depth_on_admit) {
    queue_depth_on_admit = other.queue_depth_on_admit;
  }
  candidates_considered += other.candidates_considered;
  pruned_before_probes += other.pruned_before_probes;
  pruned_after_first_probe += other.pruned_after_first_probe;
  fully_probed += other.fully_probed;
  early_terminations += other.early_terminations;
  views_searched += other.views_searched;
  target_time_ms += other.target_time_ms;
  comparison_time_ms += other.comparison_time_ms;
  deviation_time_ms += other.deviation_time_ms;
  accuracy_time_ms += other.accuracy_time_ms;
  if (other.num_workers > num_workers) num_workers = other.num_workers;
  if (simd_dispatch.empty()) simd_dispatch = other.simd_dispatch;
  completeness.Merge(other.completeness);
}

std::string ExecStats::ToString() const {
  std::ostringstream out;
  out << "cost=" << common::FormatDouble(TotalCostMillis(), 3) << "ms"
      << " (Ct=" << common::FormatDouble(target_time_ms, 3)
      << " Cc=" << common::FormatDouble(comparison_time_ms, 3)
      << " Cd=" << common::FormatDouble(deviation_time_ms, 3)
      << " Ca=" << common::FormatDouble(accuracy_time_ms, 3) << ")"
      << " candidates=" << candidates_considered
      << " pruned0=" << pruned_before_probes
      << " pruned1=" << pruned_after_first_probe
      << " full=" << fully_probed
      << " early_term=" << early_terminations
      << " queries(t/c)=" << target_queries << "/" << comparison_queries
      << " rows=" << rows_scanned
      << " rows(b/p)=" << build_rows_scanned << "/" << probe_rows_scanned
      << " base(b/h)=" << base_builds << "/" << base_cache_hits
      << " fused=" << fused_builds
      << " morsels=" << morsels_dispatched
      << " workers=" << num_workers;
  if (fused_coalesced > 0) out << " coalesced=" << fused_coalesced;
  // Printed only for memoized runs so library output stays unchanged.
  if (memo_hits > 0 || memo_fills > 0) {
    out << " memo(h/f)=" << memo_hits << "/" << memo_fills;
  }
  // Printed only when zone maps actually pruned, so single-chunk runs
  // (every pre-chunking golden) stay byte-stable.
  if (chunks_skipped > 0) out << " chunks_skipped=" << chunks_skipped;
  // Printed only for append-patched runs so cold output stays unchanged.
  if (delta_merges > 0 || ingest_rows > 0) {
    out << " delta_merges=" << delta_merges
        << " ingest_rows=" << ingest_rows;
  }
  if (!simd_dispatch.empty()) out << " simd=" << simd_dispatch;
  if (predicate_rows_filtered > 0 || setup_time_ms > 0.0) {
    out << " filtered=" << predicate_rows_filtered
        << " setup=" << common::FormatDouble(setup_time_ms, 3) << "ms";
  }
  // Printed only for served (gate-admitted) runs so library output stays
  // unchanged.
  if (queue_ms > 0.0 || queue_depth_on_admit > 0) {
    out << " queue=" << common::FormatDouble(queue_ms, 3) << "ms"
        << " queue_depth=" << queue_depth_on_admit;
  }
  // Printed only for degraded runs so unbounded output stays unchanged.
  if (completeness.degraded) {
    out << " DEGRADED code=" << common::StatusCodeName(completeness.status)
        << " views_done=" << completeness.views_fully_searched
        << " bins_deadline_pruned=" << completeness.bins_pruned_by_deadline;
  }
  return out.str();
}

}  // namespace muve::core
