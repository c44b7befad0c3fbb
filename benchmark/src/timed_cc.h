#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc.h"
#include "common/cacheline.h"
#include "ledger.h"

namespace bench {

/// The span and call kinds the benchmark records. kTxn is one logical
/// transaction (Workload::RunTxn); the others are its calls into the engine.
enum class CallKind : uint8_t {
  kTxn,
  kBegin,
  kRead,
  kWrite,  ///< Update, Insert and Remove
  kScan,   ///< Scan and SnapshotScan
  kCommit,
  kAbort,
};
inline constexpr uint32_t kNumCallKinds = 7;
const char* CallKindName(CallKind kind);

struct Span {
  uint64_t txn_id;
  uint64_t start_ns;
  uint64_t end_ns;
  CallKind kind;
};

/// Calls into the engine, counted always and timed when tracing.
struct CallStats {
  uint64_t calls[kNumCallKinds] = {};
  uint64_t ns[kNumCallKinds] = {};
  uint64_t scan_rows = 0;   ///< rows delivered by Scan/SnapshotScan
  uint64_t commit_ok = 0;   ///< Commit calls that returned Ok

  void Merge(const CallStats& o);
};

/// Benchmark-side decorator on ConcurrencyControl, shaped like
/// rocc::CoopYieldCc: it forwards every virtual to the engine and, on the
/// way, keeps each worker's ledger (writes, inserts and scan results of the
/// attempt in flight, folded in on a successful Commit) and call counts.
/// With tracing on it also times every call and keeps spans in memory.
///
/// `tracked_table` names the table whose 8-byte field-0 updates are kept in
/// the ledger for the final row-value check (~0u = none).
class TimedCc : public rocc::ConcurrencyControl {
 public:
  static constexpr uint32_t kNoTable = ~0u;

  TimedCc(rocc::ConcurrencyControl* inner, uint32_t num_threads, bool trace,
          uint32_t tracked_table, size_t span_capacity_per_worker);

  // --- logical-transaction hooks, called around each Workload::RunTxn ---

  /// A logical transaction starts on `thread_id`.
  void BeginLogical(uint32_t thread_id);
  /// The logical transaction ended; records its span when tracing, and its
  /// self time when it committed. Returns true when it called Scan or
  /// SnapshotScan (a bulk transaction).
  bool EndLogical(uint32_t thread_id, uint64_t start_ns, uint64_t end_ns,
                  bool committed);

  /// Under the fiber runner the scan consumer handed in yields to the other
  /// workers once every `every` rows (CoopYieldCc's records_per_yield). When
  /// tracing, those calls are timed and taken out of the scan's own time.
  void set_consumer_yield_every(uint32_t every) { consumer_yield_every_ = every; }

  /// Under the fiber runner, switch to the next fiber before every
  /// `every`-th Read/Update/Insert/Remove of a worker (0 = never), so that
  /// point operations of different workers interleave.
  void set_ops_per_fiber_yield(uint32_t every) { ops_per_fiber_yield_ = every; }

  WorkerLedger& ledger(uint32_t thread_id) { return workers_[thread_id]->ledger; }
  const CallStats& calls(uint32_t thread_id) const { return workers_[thread_id]->calls; }
  /// Forget call counts, self times and spans (end of warm-up).
  void ResetCalls();
  /// Sum over committed logical transactions of their span's self time
  /// (length minus the engine calls inside it).
  uint64_t txn_self_ns(uint32_t thread_id) const {
    return workers_[thread_id]->txn_self_ns;
  }
  const std::vector<Span>& spans(uint32_t thread_id) const {
    return workers_[thread_id]->spans;
  }

  // --- ConcurrencyControl ---

  const char* Name() const override { return inner_->Name(); }
  void AttachThread(uint32_t thread_id, rocc::TxnStats* stats) override {
    inner_->AttachThread(thread_id, stats);
  }
  void AttachLog(rocc::LogManager* log) override { inner_->AttachLog(log); }
  rocc::TxnDescriptor* Begin(uint32_t thread_id) override;
  rocc::TxnDescriptor* BeginReadOnly(uint32_t thread_id) override;
  rocc::Status Read(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t key,
                    void* out) override;
  rocc::Status Update(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t key,
                      const void* data, uint32_t size,
                      uint32_t field_offset) override;
  rocc::Status Insert(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t key,
                      const void* payload) override;
  rocc::Status Remove(rocc::TxnDescriptor* t, uint32_t table_id,
                      uint64_t key) override;
  rocc::Status Scan(rocc::TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                    uint64_t end_key, uint64_t limit,
                    rocc::ScanConsumer* consumer) override;
  rocc::Status SnapshotScan(rocc::TxnDescriptor* t, uint32_t table_id,
                            uint64_t start_key, uint64_t end_key, uint64_t limit,
                            rocc::ScanConsumer* consumer) override;
  bool EnableMvcc() override { return inner_->EnableMvcc(); }
  rocc::mv::VersionStore* version_store() override { return inner_->version_store(); }
  rocc::Status Commit(rocc::TxnDescriptor* t) override;
  void Abort(rocc::TxnDescriptor* t) override;
  rocc::AbortReason LastAbortReason(uint32_t thread_id) const override {
    return inner_->LastAbortReason(thread_id);
  }
  rocc::ContentionManager* contention() override { return inner_->contention(); }
  void SetValidationPacing(uint32_t every) override {
    inner_->SetValidationPacing(every);
  }

 private:
  struct alignas(rocc::kCacheLineSize) Worker {
    CallStats calls;
    WorkerLedger ledger;
    std::vector<Span> spans;
    uint32_t id = 0;
    uint64_t txn_seq = 0;  ///< logical transactions begun on this worker
    uint64_t child_ns = 0;  ///< engine time inside the logical txn
    uint64_t txn_self_ns = 0;
    bool saw_scan = false;
    uint32_t ops_since_yield = 0;
  };

  /// Id of the worker's current logical transaction, shared by its spans.
  static uint64_t TxnId(const Worker& w) { return (uint64_t{w.id} << 40) | w.txn_seq; }
  void MaybeYield(Worker& w);
  uint64_t Start() const;
  void Finish(Worker& w, CallKind kind, uint64_t start_ns, uint64_t excluded_ns = 0);
  rocc::TxnDescriptor* Began(rocc::TxnDescriptor* t, uint64_t start_ns);
  rocc::Status ScanVia(bool snapshot, rocc::TxnDescriptor* t, uint32_t table_id,
                       uint64_t start_key, uint64_t end_key, uint64_t limit,
                       rocc::ScanConsumer* consumer);

  rocc::ConcurrencyControl* inner_;
  bool trace_;
  uint32_t consumer_yield_every_ = 0;
  uint32_t ops_per_fiber_yield_ = 0;
  uint32_t tracked_table_;
  size_t span_capacity_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace bench
