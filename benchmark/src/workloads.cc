#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/fiber.h"
#include "common/zipfian.h"
#include "core/rocc.h"
#include "harness/runner.h"
#include "mv/version_store.h"

namespace bench {

namespace {

// Retry budget of the real-thread workload. With the engine's default of
// 1000, a protected (gate-holding) retry whose conflicting lock holder is
// descheduled by the OS spends its budget in about a millisecond of yields
// and gives up; on this benchmark's 4-core host that happened several times
// per 15 s run of ycsb_hot_mv (README, "Faults"). A larger budget lets the
// retry outlast the holder's time off the core, so the stall shows up as
// latency instead of a failed transaction.
constexpr uint32_t kThreadRetryBudget = 1'000'000;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  // Paper-scale hybrid YCSB (§V-B) on the 40-worker fiber simulator.
  WorkloadSpec bulk;
  bulk.name = "ycsb_bulk40";
  bulk.kind = WorkloadSpec::Kind::kYcsb;
  bulk.ycsb.num_rows = 10'000'000;
  bulk.ycsb.payload_size = 64;
  bulk.ycsb.theta = 0.7;
  bulk.ycsb.ops_per_txn = 5;
  bulk.ycsb.read_fraction = 0.0;
  bulk.ycsb.scan_txn_fraction = 0.1;
  bulk.ycsb.scan_txn_updates = 4;
  bulk.ycsb.scan_length = 1000;
  bulk.protocol = "rocc";
  bulk.workers = 40;
  bulk.fibers = true;
  bulk.warmup_txns_per_worker = 25;
  bulk.round_txns_per_worker = 250;
  specs.push_back(bulk);

  // Hot, cache-resident YCSB on real threads with snapshot analytics.
  WorkloadSpec hot;
  hot.name = "ycsb_hot_mv";
  hot.kind = WorkloadSpec::Kind::kYcsb;
  hot.ycsb.num_rows = 131072;
  hot.ycsb.payload_size = 64;
  hot.ycsb.theta = 0.99;
  hot.ycsb.ops_per_txn = 5;
  hot.ycsb.read_fraction = 0.5;
  hot.ycsb.scan_txn_fraction = 0.1;
  hot.ycsb.scan_length = 100;
  hot.ycsb.snapshot_scans = true;
  hot.ycsb.scan_txn_point_reads = 4;
  hot.ycsb.max_retries = kThreadRetryBudget;
  hot.protocol = "rocc+mv";
  hot.workers = 3;
  hot.warmup_txns_per_worker = 20000;
  specs.push_back(hot);

  // Modified TPC-C with the bulk top-shopper reward and a group-commit WAL.
  // The WAL lives in the checkout, on the host's disk: acknowledgements are
  // asynchronous so that the disk's fsync latency stays out of the numbers
  // (README, "Flush policy"). The two workers are fibers that switch before
  // every second point operation, so their transactions overlap and conflict
  // at operation granularity; on OS threads the engine loses committed
  // inserts (README, "Faults", 1).
  WorkloadSpec tpcc;
  tpcc.name = "tpcc_wal";
  tpcc.kind = WorkloadSpec::Kind::kTpcc;
  tpcc.tpcc.num_warehouses = 4;
  tpcc.tpcc.pct_new_order = 45;
  tpcc.tpcc.pct_payment = 31;
  tpcc.tpcc.pct_bulk = 14;
  tpcc.tpcc.pct_order_status = 4;
  tpcc.tpcc.pct_delivery = 4;
  tpcc.tpcc.bulk_scan_length = 3000;
  tpcc.protocol = "rocc";
  tpcc.workers = 2;
  tpcc.fibers = true;
  tpcc.ops_per_fiber_yield = 2;
  tpcc.round_txns_per_worker = 250;
  tpcc.group_commit_us = 50;
  tpcc.warmup_txns_per_worker = 1000;
  specs.push_back(tpcc);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

double RssBytes() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPUs the process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to one CPU for its lifetime in scope, then gives
/// back its previous mask. A negative cpu pins nothing. Worker threads stay
/// on their core's L1/L2 instead of following the scheduler's migrations.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) {
    if (cpu < 0) return;
    pinned_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
    if (!pinned_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~ScopedPin() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// CPU for worker `tid` of `workers`: the highest-numbered allowed CPUs, so
/// CPU 0 (interrupts, the coordinator) stays free; -1 (no pinning) when the
/// workers would not each get a CPU of their own.
int WorkerCpu(uint32_t tid, uint32_t workers) {
  static const std::vector<int> cpus = AllowedCpus();
  if (workers >= cpus.size()) return -1;
  return cpus[cpus.size() - 1 - tid];
}

/// Reusable barrier for fibers on one OS thread (no atomics needed).
class FiberRoundBarrier {
 public:
  explicit FiberRoundBarrier(uint32_t n) : n_(n) {}
  void Wait() {
    const uint64_t gen = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      generation_++;
      return;
    }
    while (generation_ == gen) rocc::CooperativeYield();
  }

 private:
  uint32_t n_;
  uint32_t arrived_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

void Committed::Merge(const Committed& o) {
  txns += o.txns;
  bulk += o.bulk;
  point_latency.Merge(o.point_latency);
  bulk_latency.Merge(o.bulk_latency);
  per_window.resize(std::max(per_window.size(), o.per_window.size()));
  for (size_t i = 0; i < o.per_window.size(); i++) per_window[i] += o.per_window[i];
}

struct Instance::Worker {
  explicit Worker(uint64_t seed) : rng(seed) {}
  rocc::Rng rng;
  rocc::TxnStats warm_stats;
  rocc::TxnStats stats;
  /// Measured-region figures; under fibers only worker 0's are used (all
  /// fibers share one OS thread).
  Committed committed;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Instance::Instance(const WorkloadSpec& spec, const RunConfig& cfg)
    : spec_(spec), cfg_(cfg) {
  db_ = std::make_unique<rocc::Database>();
  const double rss0 = RssBytes();
  const uint64_t t0 = NowNs();
  uint32_t tracked_table = TimedCc::kNoTable;
  if (spec.kind == WorkloadSpec::Kind::kYcsb) {
    auto w = std::make_unique<rocc::YcsbWorkload>(spec.ycsb);
    ycsb_ = w.get();
    workload_ = std::move(w);
    workload_->Load(db_.get());
    tracked_table = ycsb_->table_id();
  } else {
    auto w = std::make_unique<rocc::TpccWorkload>(spec.tpcc);
    tpcc_ = w.get();
    workload_ = std::move(w);
    workload_->Load(db_.get());
  }
  load_s_ = static_cast<double>(NowNs() - t0) * 1e-9;
  uint64_t rows = 0;
  for (uint32_t t = 0; t < db_->NumTables(); t++) rows += db_->GetIndex(t)->Size();
  rss_bytes_per_row_ = rows == 0 ? 0 : (RssBytes() - rss0) / static_cast<double>(rows);
  if (tpcc_ != nullptr) orders_before_ = CountVisibleRows(*db_, tpcc_->tables().order);

  if (spec.group_commit_us > 0) {
    log_dir_ = cfg.out_dir + "/wal-" + std::to_string(getpid());
    std::filesystem::remove_all(log_dir_);
    rocc::LogOptions lo;
    lo.log_dir = log_dir_;
    lo.group_commit_us = spec.group_commit_us;
    lo.sync_ack = false;
    log_ = std::make_unique<rocc::LogManager>(lo, spec.workers);
    const rocc::Status st = log_->Open();
    if (!st.ok()) {
      std::fprintf(stderr, "cannot open the WAL in %s\n", log_dir_.c_str());
      std::exit(2);
    }
  }

  protocol_ = rocc::CreateProtocol(spec.protocol, db_.get(), *workload_, spec.workers);
  const size_t span_cap = cfg.trace ? 400'000 / spec.workers : 0;
  timed_ = std::make_unique<TimedCc>(protocol_.get(), spec.workers, cfg.trace,
                                     tracked_table, span_cap);
  if (log_ != nullptr) timed_->AttachLog(log_.get());
  if (ycsb_ != nullptr) {
    for (uint32_t tid = 0; tid < spec.workers; tid++) {
      timed_->ledger(tid).dense_table = ycsb_->table_id();
      timed_->ledger(tid).dense_rows = spec.ycsb.num_rows;
    }
  }
  if (spec.fibers) {
    // The same interleaving the engine's own fiber runner uses: operation-
    // granularity yields around the engine, paced validation inside it.
    // CoopYieldCc's operation yields switch no fiber (README, "Faults", 5);
    // a workload that sets ops_per_fiber_yield gets them from TimedCc.
    constexpr uint32_t kOpsPerYield = 2;
    constexpr uint32_t kRecordsPerYield = 32;
    coop_ = std::make_unique<rocc::CoopYieldCc>(timed_.get(), kOpsPerYield,
                                                kRecordsPerYield);
    timed_->SetValidationPacing(16);
    timed_->set_consumer_yield_every(kRecordsPerYield);
    timed_->set_ops_per_fiber_yield(spec.ops_per_fiber_yield);
    entry_ = coop_.get();
  } else {
    entry_ = timed_.get();
  }
  for (uint32_t tid = 0; tid < spec.workers; tid++) {
    workers_.push_back(
        std::make_unique<Worker>(cfg.seed * 0x9e3779b97f4a7c15ULL + tid + 1));
  }
}

Instance::~Instance() {
  if (log_ != nullptr) log_->Stop();
  if (!log_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(log_dir_, ec);
  }
}

void Instance::RunLogical(uint32_t tid) {
  Worker& w = *workers_[tid];
  timed_->BeginLogical(tid);
  const uint64_t t0 = NowNs();
  const rocc::Status st = workload_->RunTxn(entry_, tid, w.rng);
  const uint64_t t1 = NowNs();
  const bool bulk = timed_->EndLogical(tid, t0, t1, st.ok());
  w.attempted++;
  if (!st.ok()) {
    w.failed++;
    std::fprintf(stderr, "worker %u: a %s transaction failed after %s (%s)\n", tid,
                 bulk ? "bulk" : "point",
                 rocc::AbortReasonName(entry_->LastAbortReason(tid)), st.ToString().c_str());
    return;
  }
  if (!measuring_) return;
  Committed& c = workers_[spec_.fibers ? 0 : tid]->committed;
  c.txns++;
  c.per_window[window_.load(std::memory_order_relaxed)]++;
  if (bulk) {
    c.bulk++;
    c.bulk_latency.Record(t1 - t0);
  } else {
    c.point_latency.Record(t1 - t0);
  }
}

void Instance::MarkWindowEdge() {
  window_edges_.push_back({NowNs(), CpuSeconds()});
}

void Instance::DriveFibers(uint64_t txns, double seconds, Measurement* m) {
  const uint32_t n = spec_.workers;
  ScopedPin pin(WorkerCpu(0, 1));  // every fiber runs on this one OS thread
  rocc::FiberScheduler scheduler;
  FiberRoundBarrier barrier(n);
  bool stop = false;
  uint32_t rounds = 0;
  const uint64_t start = NowNs();
  const double window_s = seconds / static_cast<double>(num_windows_);
  const uint64_t per_round = seconds > 0 ? spec_.round_txns_per_worker : txns;
  for (uint32_t tid = 0; tid < n; tid++) {
    scheduler.Spawn([&, tid] {
      for (;;) {
        for (uint64_t i = 0; i < per_round; i++) RunLogical(tid);
        barrier.Wait();
        if (tid == 0) {
          // Fiber 0 decides for everyone before the second barrier lets the
          // others read the decision.
          rounds++;
          if (rounds == 1 && m != nullptr) {
            for (const auto& w : workers_) {
              m->first_round_aborts += w->stats.aborts;
              m->first_round_validated_txns += w->stats.validated_txns;
              m->first_round_validated_records += w->stats.validated_records;
            }
          }
          const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
          stop = seconds <= 0 || elapsed >= seconds;
          const uint32_t w = window_.load(std::memory_order_relaxed);
          if (seconds > 0 && !stop && w + 1 < num_windows_ &&
              elapsed >= window_s * (w + 1)) {
            MarkWindowEdge();
            window_.store(w + 1, std::memory_order_relaxed);
          }
        }
        barrier.Wait();
        if (stop) return;
      }
    });
  }
  scheduler.Run();
}

void Instance::DriveThreads(uint64_t txns, double seconds) {
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < spec_.workers; tid++) {
    threads.emplace_back([&, tid] {
      ScopedPin pin(WorkerCpu(tid, spec_.workers));
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      if (seconds > 0) {
        while (!stop.load(std::memory_order_relaxed)) RunLogical(tid);
      } else {
        for (uint64_t i = 0; i < txns; i++) RunLogical(tid);
      }
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
  }
  cv.notify_all();
  // The coordinator sleeps: it must not take a core from the workers.
  if (seconds > 0) {
    const auto start = std::chrono::steady_clock::now();
    const double window_s = seconds / static_cast<double>(num_windows_);
    for (uint32_t w = 1; w < num_windows_; w++) {
      std::this_thread::sleep_until(start + std::chrono::duration<double>(window_s * w));
      MarkWindowEdge();
      window_.store(w, std::memory_order_relaxed);
    }
    std::this_thread::sleep_until(start + std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& t : threads) t.join();
}

void Instance::Drive(uint64_t txns, double seconds, Measurement* m) {
  if (spec_.fibers) {
    DriveFibers(txns, seconds, m);
  } else {
    DriveThreads(txns, seconds);
  }
}

void Instance::Warmup() {
  rocc::ZipfianGenerator::MarkZetaCacheWarm(false);
  for (uint32_t tid = 0; tid < spec_.workers; tid++) {
    protocol_->AttachThread(tid, &workers_[tid]->warm_stats);
  }
  Drive(spec_.warmup_txns_per_worker, 0, nullptr);
  rocc::ZipfianGenerator::MarkZetaCacheWarm();
  for (auto& w : workers_) {
    warm_attempted_ += w->attempted;
    warm_failed_ += w->failed;
    w->attempted = w->failed = 0;
  }
  timed_->ResetCalls();
}

Measurement Instance::Measure() {
  Measurement m;
  for (uint32_t tid = 0; tid < spec_.workers; tid++) {
    protocol_->AttachThread(tid, &workers_[tid]->stats);
  }
  // About one window per second, for the per-window throughput on stderr.
  num_windows_ = std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(cfg_.seconds)));
  for (uint32_t tid = 0; tid < (spec_.fibers ? 1 : spec_.workers); tid++) {
    workers_[tid]->committed.per_window.assign(num_windows_, 0);
  }
  const uint64_t log_bytes0 = log_ != nullptr ? log_->durable_bytes() : 0;
  const uint64_t log_records0 = log_ != nullptr ? log_->records_logged() : 0;
  const uint64_t log_epoch0 = log_ != nullptr ? log_->durable_epoch() : 0;
  window_edges_.clear();
  window_.store(0);
  measuring_ = true;
  MarkWindowEdge();
  Drive(0, cfg_.seconds, &m);
  MarkWindowEdge();
  measuring_ = false;
  m.wall_s = static_cast<double>(window_edges_.back().ns - window_edges_.front().ns) * 1e-9;
  m.cpu_s = window_edges_.back().cpu_s - window_edges_.front().cpu_s;
  for (size_t i = 0; i + 1 < window_edges_.size(); i++) {
    m.window_wall_s.push_back(
        static_cast<double>(window_edges_[i + 1].ns - window_edges_[i].ns) * 1e-9);
  }
  if (log_ != nullptr) {
    m.log_bytes = log_->durable_bytes() - log_bytes0;
    m.log_records = log_->records_logged() - log_records0;
    m.log_epochs = log_->durable_epoch() - log_epoch0;
  }

  m.attempted = warm_attempted_;
  m.failed = warm_failed_;
  for (uint32_t tid = 0; tid < spec_.workers; tid++) {
    Worker& w = *workers_[tid];
    m.attempted += w.attempted;
    m.failed += w.failed;
    m.committed.Merge(w.committed);
    m.stats.Merge(w.stats);
    m.calls.Merge(timed_->calls(tid));
    m.txn_self_ns += timed_->txn_self_ns(tid);
  }
  if (auto* rocc_cc = dynamic_cast<rocc::Rocc*>(protocol_.get())) {
    uint64_t top = 0;
    uint64_t total = 0;
    for (const rocc::RangeTelemetry& t : rocc_cc->LiveRangeTelemetry(1)) {
      total += t.total_registrations;
      if (!t.rows.empty()) top = std::max(top, t.rows.front().registrations);
    }
    m.top_range_registration_share =
        total == 0 ? 0 : static_cast<double>(top) / static_cast<double>(total);
  }
  return m;
}

IndexProbe Instance::ProbeIndex() {
  IndexProbe p;
  rocc::Rng rng(cfg_.seed ^ 0x1dec5eedULL);
  std::vector<uint64_t> keys;
  std::vector<uint64_t> starts;
  uint32_t table = 0;
  uint64_t scan_len = 0;
  if (ycsb_ != nullptr) {
    const rocc::YcsbOptions& o = ycsb_->options();
    rocc::ZipfianGenerator zipf(o.num_rows, o.theta);
    for (int i = 0; i < 200'000; i++) keys.push_back(zipf.Next(rng));
    for (int i = 0; i < 2'000; i++) starts.push_back(ycsb_->ClampScanStart(zipf.Next(rng)));
    table = ycsb_->table_id();
    scan_len = o.scan_length;
  } else {
    using namespace rocc::tpcc;
    const uint32_t wh = tpcc_->options().num_warehouses;
    scan_len = tpcc_->options().bulk_scan_length;
    for (int i = 0; i < 200'000; i++) keys.push_back(rng.Uniform(wh * kCustomersPerWarehouse));
    for (int i = 0; i < 2'000; i++) {
      const uint32_t w = static_cast<uint32_t>(rng.Uniform(wh));
      starts.push_back(CustomerKey(w, 0, 0) +
                       rng.Uniform(kCustomersPerWarehouse - scan_len + 1));
    }
    table = tpcc_->tables().customer;
  }
  const rocc::OrderedIndex* index = db_->GetIndex(table);
  uint64_t found = 0;
  uint64_t t0 = NowNs();
  for (uint64_t k : keys) found += index->Get(k) != nullptr ? 1 : 0;
  p.get_ns = static_cast<double>(NowNs() - t0) / static_cast<double>(keys.size());
  uint64_t rows = 0;
  t0 = NowNs();
  for (uint64_t s : starts) {
    uint64_t left = scan_len;
    index->ScanFrom(s, [&](uint64_t, rocc::Row*) { return --left > 0; });
    rows += scan_len - left;
  }
  p.scan_ns_per_row = static_cast<double>(NowNs() - t0) / static_cast<double>(rows);
  if (found != keys.size()) std::fprintf(stderr, "index probe: %llu keys missing\n",
                                         static_cast<unsigned long long>(keys.size() - found));
  return p;
}

std::vector<const WorkerLedger*> Instance::Ledgers() const {
  std::vector<const WorkerLedger*> out;
  for (uint32_t tid = 0; tid < spec_.workers; tid++) out.push_back(&timed_->ledger(tid));
  return out;
}

std::vector<CheckResult> Instance::Check() {
  std::vector<CheckResult> out;
  if (log_ != nullptr) log_->Stop();
  const auto ledgers = Ledgers();
  if (ycsb_ != nullptr) {
    const uint64_t n = ycsb_->options().num_rows;
    out.push_back(CheckDenseScans(ledgers));
    out.push_back(CheckYcsbRows(*db_, ycsb_->table_id(), n, ledgers));
    if (rocc::mv::VersionStore* vs = protocol_->version_store()) {
      vs->GcQuiesce(db_.get());
      out.push_back(CheckVersionsReclaimed(vs->Telemetry().live_nodes()));
    }
  } else {
    const rocc::tpcc::TableIds& t = tpcc_->tables();
    out.push_back(CheckTpccConsistency(*db_, t, tpcc_->options().num_warehouses));
    uint64_t inserted = 0;
    for (const WorkerLedger* l : ledgers) inserted += l->inserts[t.order];
    out.push_back(CheckOrderGrowth(orders_before_, CountVisibleRows(*db_, t.order),
                                   inserted));
  }
  if (log_ != nullptr) {
    // Replay the run's WAL into a freshly loaded copy of the database.
    rocc::Database fresh;
    rocc::TpccWorkload loader(spec_.tpcc);
    loader.Load(&fresh);
    rocc::RecoveryStats rs;
    const rocc::Status st = rocc::LogManager::Recover(log_dir_, &fresh, &rs);
    if (!st.ok()) {
      out.push_back({"recovery reproduces the live database", false,
                     "Recover failed: " + st.ToString()});
    } else {
      CheckResult same = CheckSameRows(*db_, fresh);
      same.detail += " (replayed " + std::to_string(rs.replayed_records) + " records, " +
                     std::to_string(rs.skipped_records) + " past the last epoch, " +
                     std::to_string(rs.torn_bytes) + " torn bytes, " +
                     std::to_string(rs.stale_writes) + " stale writes; " +
                     std::to_string(log_->records_logged()) + " logged)";
      out.push_back(same);
    }
  }
  return out;
}

void Instance::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "txn_id,span,start_ns,end_ns\n");
  for (uint32_t tid = 0; tid < spec_.workers; tid++) {
    for (const Span& s : timed_->spans(tid)) {
      std::fprintf(f, "%llu,%s,%llu,%llu\n", static_cast<unsigned long long>(s.txn_id),
                   CallKindName(s.kind), static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

}  // namespace bench
