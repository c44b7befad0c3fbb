#include "metrics.h"

#include <charconv>

namespace bench {

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double U(uint64_t v) { return static_cast<double>(v); }

uint64_t Calls(const CallStats& c, CallKind k) { return c.calls[static_cast<uint32_t>(k)]; }
uint64_t Ns(const CallStats& c, CallKind k) { return c.ns[static_cast<uint32_t>(k)]; }

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const Measurement& m, const RunContext& ctx) {
  // Over the whole measured region, so a stall in any part of it shows.
  const Committed& all = m.committed;
  const double committed = U(all.txns);
  return {
      {"tps", Ratio(committed, m.wall_s), "txn/s"},
      {"bulk_tps", Ratio(U(all.bulk), m.wall_s), "txn/s"},
      {"point_p50_us", all.point_latency.QuantileNs(0.50) * 1e-3, "us"},
      {"point_p99_us", all.point_latency.QuantileNs(0.99) * 1e-3, "us"},
      {"bulk_p50_us", all.bulk_latency.QuantileNs(0.50) * 1e-3, "us"},
      {"bulk_p99_us", all.bulk_latency.QuantileNs(0.99) * 1e-3, "us"},
      {"cpu_us_per_txn", Ratio(m.cpu_s * 1e6, committed), "us"},
      {"setup_s", ctx.setup_s, "s"},
      {"peak_rss_mb", ctx.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Measurement& m, const RunContext& ctx) {
  const CallStats& c = m.calls;
  const rocc::TxnStats& s = m.stats;
  const double commits = U(s.commits);
  const double per_1k = 1000.0 / (commits == 0 ? 1 : commits);
  const uint64_t begins = Calls(c, CallKind::kBegin);
  return {
      {"cc.read_ns", Ratio(U(Ns(c, CallKind::kRead)), U(Calls(c, CallKind::kRead))), "ns"},
      {"cc.write_ns", Ratio(U(Ns(c, CallKind::kWrite)), U(Calls(c, CallKind::kWrite))), "ns"},
      {"cc.scan_ns_per_row", Ratio(U(Ns(c, CallKind::kScan)), U(c.scan_rows)), "ns"},
      {"cc.scan_rows_per_call", Ratio(U(c.scan_rows), U(Calls(c, CallKind::kScan))), "rows"},
      {"cc.commit_ns", Ratio(U(Ns(c, CallKind::kCommit)), U(Calls(c, CallKind::kCommit))), "ns"},
      {"cc.commit_ok_ratio", Ratio(U(c.commit_ok), U(Calls(c, CallKind::kCommit))), "ratio"},
      {"cc.attempts_per_txn", Ratio(U(begins), U(m.committed.txns)), "count"},
      {"cc.exec_abort_ratio", Ratio(U(Calls(c, CallKind::kAbort)), U(begins)), "ratio"},
      {"cc.attempt_p50_us", U(s.latency_all.Percentile(50)) * 1e-3, "us"},
      {"cc.read_validation_per_1k", U(s.abort_read_validation) * per_1k, "count"},
      {"harness.retry_ns_per_txn", Ratio(U(m.txn_self_ns), U(m.committed.txns)), "ns"},
      {"harness.backoff_ns_per_commit", U(s.backoff_ns_total) / (commits == 0 ? 1 : commits), "ns"},
      {"harness.gate_wait_ns_per_commit", U(s.gate_wait_ns) / (commits == 0 ? 1 : commits), "ns"},
      {"harness.escalations_per_1k", U(s.escalations) * per_1k, "count"},
      {"core.validated_txns_per_scan", Ratio(U(s.validated_txns), U(s.scan_txn_commits)), "count"},
      {"core.validated_records_per_commit", Ratio(U(s.validated_records), commits), "count"},
      {"core.registrations_per_commit", Ratio(U(s.registrations), commits), "count"},
      {"core.top_range_registration_share", m.top_range_registration_share, "ratio"},
      {"core.scan_conflict_per_1k", U(s.abort_scan_conflict) * per_1k, "count"},
      {"core.ring_lost_per_1k", U(s.abort_ring_lost) * per_1k, "count"},
      {"sync.lock_fail_per_1k", U(s.abort_lock_fail) * per_1k, "count"},
      {"sync.dirty_read_per_1k", U(s.abort_dirty_read) * per_1k, "count"},
      {"index.get_ns", ctx.index.get_ns, "ns"},
      {"index.scan_ns_per_row", ctx.index.scan_ns_per_row, "ns"},
      {"mv.installs_per_commit", Ratio(U(s.mv_versions_installed), commits), "count"},
      {"mv.install_bytes_per_commit", Ratio(U(s.mv_version_bytes_installed), commits), "B"},
      {"mv.chain_len_mean", s.mv_chain_length.Mean(), "count"},
      {"mv.chain_reads_per_snapshot_txn", Ratio(U(s.mv_chain_reads), U(s.mv_snapshot_txns)), "count"},
      {"log.bytes_per_commit", Ratio(U(m.log_bytes), commits), "B"},
      {"log.records_per_commit", Ratio(U(m.log_records), commits), "count"},
      {"log.flush_cycle_us", Ratio(m.wall_s * 1e6, U(m.log_epochs)), "us"},
      {"storage.rss_bytes_per_row", ctx.rss_bytes_per_row, "B"},
      {"workload.load_s", ctx.load_s, "s"},
  };
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace bench
