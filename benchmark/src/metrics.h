#pragma once

#include <string>
#include <vector>

#include "workloads.h"

namespace bench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Inputs beyond the measured region that some metrics need.
struct RunContext {
  double setup_s = 0;       ///< this process's set-up; run.py takes the median
  double peak_rss_mb = 0;
  double load_s = 0;
  double rss_bytes_per_row = 0;
  IndexProbe index;
};

/// The end-to-end metrics, measured with tracing off.
std::vector<Metric> EndToEndMetrics(const Measurement& m, const RunContext& ctx);

/// The per-layer metrics of a traced run.
std::vector<Metric> PerLayerMetrics(const Measurement& m, const RunContext& ctx);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace bench
