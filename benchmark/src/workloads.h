#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "harness/coop_cc.h"
#include "harness/stats.h"
#include "latency.h"
#include "log/log_manager.h"
#include "storage/database.h"
#include "timed_cc.h"
#include "workload/tpcc/tpcc.h"
#include "workload/ycsb.h"

namespace bench {

/// One named workload: the engine configuration and the input make-up.
struct WorkloadSpec {
  enum class Kind { kYcsb, kTpcc };

  std::string name;
  Kind kind = Kind::kYcsb;
  rocc::YcsbOptions ycsb;
  rocc::TpccOptions tpcc;
  std::string protocol;  ///< CreateProtocol name, "+mv" suffix allowed
  uint32_t workers = 1;
  bool fibers = false;   ///< all workers as fibers on one OS thread
  /// Fiber mode: the benchmark's decorator switches fibers before every n-th
  /// point operation (0 = only where the engine's CoopYieldCc does: scans,
  /// paced validation, backoff).
  uint32_t ops_per_fiber_yield = 0;
  uint32_t group_commit_us = 0;  ///< WAL on when > 0
  uint64_t warmup_txns_per_worker = 0;
  /// Fiber mode: logical transactions per worker between two looks at the
  /// clock. The measured region is a whole number of such rounds.
  uint64_t round_txns_per_worker = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Committed logical transactions of a measured region, as the benchmark saw
/// them.
struct Committed {
  uint64_t txns = 0;
  uint64_t bulk = 0;
  LatencyHistogram point_latency;
  LatencyHistogram bulk_latency;
  /// Committed transactions per window of about a second (stderr only).
  std::vector<uint64_t> per_window;

  void Merge(const Committed& o);
};

/// What a measured region produced, as seen from outside the engine.
struct Measurement {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t attempted = 0;  ///< logical transactions, warm-up included
  uint64_t failed = 0;     ///< give-ups and non-abort error statuses
  Committed committed;     ///< measured region only
  std::vector<double> window_wall_s;
  rocc::TxnStats stats;    ///< the engine's own counters, measured region
  CallStats calls;
  uint64_t txn_self_ns = 0;
  uint64_t log_bytes = 0;
  uint64_t log_records = 0;
  uint64_t log_epochs = 0;  ///< group-commit epochs made durable
  double top_range_registration_share = 0;
  /// Fiber mode: engine counts after the first round, which repeat exactly
  /// for a given seed.
  uint64_t first_round_aborts = 0;
  uint64_t first_round_validated_txns = 0;
  uint64_t first_round_validated_records = 0;
};

/// Primary-index timings taken directly after the measured region.
struct IndexProbe {
  double get_ns = 0;
  double scan_ns_per_row = 0;
};

/// One engine instance set up for a workload: loaded database, protocol,
/// the benchmark's decorator, the WAL when the workload has one, and the
/// per-worker state of the workload loop.
class Instance {
 public:
  Instance(const WorkloadSpec& spec, const RunConfig& cfg);
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Warm-up transactions per worker; they belong to set-up.
  void Warmup();
  /// Run the measured region for cfg.seconds.
  Measurement Measure();
  IndexProbe ProbeIndex();
  /// Output checks; stops the WAL first when there is one.
  std::vector<CheckResult> Check();
  void WriteSpans(const std::string& path) const;

  double load_s() const { return load_s_; }
  double rss_bytes_per_row() const { return rss_bytes_per_row_; }

 private:
  struct Worker;

  struct WindowEdge {
    uint64_t ns;
    double cpu_s;
  };

  void RunLogical(uint32_t tid);
  /// Close the current window (or open the first) at the current time.
  void MarkWindowEdge();
  /// Every worker runs `txns` logical transactions, or — when `seconds` > 0 —
  /// keeps running until that much time has passed.
  void Drive(uint64_t txns, double seconds, Measurement* m);
  void DriveFibers(uint64_t txns, double seconds, Measurement* m);
  void DriveThreads(uint64_t txns, double seconds);
  std::vector<const WorkerLedger*> Ledgers() const;

  const WorkloadSpec& spec_;
  RunConfig cfg_;
  std::string log_dir_;
  double load_s_ = 0;
  double rss_bytes_per_row_ = 0;
  uint64_t orders_before_ = 0;

  // Destruction runs bottom-up: decorators, protocol, log, workload, db.
  std::unique_ptr<rocc::Database> db_;
  std::unique_ptr<rocc::Workload> workload_;
  rocc::YcsbWorkload* ycsb_ = nullptr;
  rocc::TpccWorkload* tpcc_ = nullptr;
  std::unique_ptr<rocc::LogManager> log_;
  std::unique_ptr<rocc::ConcurrencyControl> protocol_;
  std::unique_ptr<TimedCc> timed_;
  std::unique_ptr<rocc::CoopYieldCc> coop_;
  rocc::ConcurrencyControl* entry_ = nullptr;  ///< what RunTxn is given
  std::vector<std::unique_ptr<Worker>> workers_;
  uint64_t warm_attempted_ = 0;
  uint64_t warm_failed_ = 0;
  bool measuring_ = false;
  uint32_t num_windows_ = 1;
  std::atomic<uint32_t> window_{0};  ///< written by the coordinator, read by workers
  std::vector<WindowEdge> window_edges_;
};

}  // namespace bench
