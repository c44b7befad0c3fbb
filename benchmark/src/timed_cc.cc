#include "timed_cc.h"

#include <cstring>

#include "common/fiber.h"
#include "latency.h"

namespace bench {

using rocc::Status;
using rocc::TxnDescriptor;

const char* CallKindName(CallKind kind) {
  switch (kind) {
    case CallKind::kTxn: return "txn";
    case CallKind::kBegin: return "cc.begin";
    case CallKind::kRead: return "cc.read";
    case CallKind::kWrite: return "cc.write";
    case CallKind::kScan: return "cc.scan";
    case CallKind::kCommit: return "cc.commit";
    case CallKind::kAbort: return "cc.abort";
  }
  return "unknown";
}

void CallStats::Merge(const CallStats& o) {
  for (uint32_t i = 0; i < kNumCallKinds; i++) {
    calls[i] += o.calls[i];
    ns[i] += o.ns[i];
  }
  scan_rows += o.scan_rows;
  commit_ok += o.commit_ok;
}

namespace {

/// Records what a scan delivered, then hands each row to the caller's
/// consumer. When `time_every` > 0 it times every time_every-th call into
/// the caller's consumer — the calls where the fiber runner's consumer
/// yields to other workers — so that time can be taken out of the scan's.
class RecordingConsumer : public rocc::ScanConsumer {
 public:
  RecordingConsumer(rocc::ScanConsumer* inner, ScanRecord* rec, uint32_t time_every)
      : inner_(inner), rec_(rec), time_every_(time_every) {}

  bool OnRecord(uint64_t key, const char* payload) override {
    rec_->Observe(key);
    if (inner_ == nullptr) return true;
    const bool timed = time_every_ != 0 && rec_->count % time_every_ == 0;
    const uint64_t t0 = timed ? NowNs() : 0;
    const bool more = inner_->OnRecord(key, payload);
    if (timed) inner_ns_ += NowNs() - t0;
    if (!more) rec_->stopped = true;
    return more;
  }

  uint64_t inner_ns() const { return inner_ns_; }

 private:
  rocc::ScanConsumer* inner_;
  ScanRecord* rec_;
  uint32_t time_every_;
  uint64_t inner_ns_ = 0;
};

}  // namespace

TimedCc::TimedCc(rocc::ConcurrencyControl* inner, uint32_t num_threads, bool trace,
                 uint32_t tracked_table, size_t span_capacity_per_worker)
    : inner_(inner),
      trace_(trace),
      tracked_table_(tracked_table),
      span_capacity_(span_capacity_per_worker) {
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; i++) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->id = i;
  }
}

void TimedCc::ResetCalls() {
  for (auto& w : workers_) {
    w->calls = CallStats{};
    w->txn_self_ns = 0;
    w->spans.clear();
  }
}

void TimedCc::BeginLogical(uint32_t thread_id) {
  Worker& w = *workers_[thread_id];
  w.saw_scan = false;
  w.child_ns = 0;
  w.txn_seq++;
}

bool TimedCc::EndLogical(uint32_t thread_id, uint64_t start_ns, uint64_t end_ns,
                         bool committed) {
  Worker& w = *workers_[thread_id];
  if (trace_) {
    const uint64_t len = end_ns - start_ns;
    if (committed) w.txn_self_ns += len > w.child_ns ? len - w.child_ns : 0;
    if (w.spans.size() < span_capacity_) {
      w.spans.push_back({TxnId(w), start_ns, end_ns, CallKind::kTxn});
    }
  }
  return w.saw_scan;
}

void TimedCc::MaybeYield(Worker& w) {
  if (ops_per_fiber_yield_ == 0 || ++w.ops_since_yield < ops_per_fiber_yield_) return;
  w.ops_since_yield = 0;
  rocc::CooperativeYield();
}

uint64_t TimedCc::Start() const { return trace_ ? NowNs() : 0; }

void TimedCc::Finish(Worker& w, CallKind kind, uint64_t start_ns, uint64_t excluded_ns) {
  const uint32_t k = static_cast<uint32_t>(kind);
  w.calls.calls[k]++;
  if (!trace_) return;
  const uint64_t end_ns = NowNs();
  const uint64_t len = end_ns - start_ns;
  const uint64_t own = len > excluded_ns ? len - excluded_ns : 0;
  w.calls.ns[k] += own;
  w.child_ns += own;
  if (w.spans.size() < span_capacity_) {
    w.spans.push_back({TxnId(w), start_ns, end_ns, kind});
  }
}

TxnDescriptor* TimedCc::Began(TxnDescriptor* t, uint64_t start_ns) {
  Worker& w = *workers_[t->thread_id];
  w.ledger.Drop();  // nothing is pending between attempts; stay safe anyway
  Finish(w, CallKind::kBegin, start_ns);
  return t;
}

TxnDescriptor* TimedCc::Begin(uint32_t thread_id) {
  const uint64_t t0 = Start();
  return Began(inner_->Begin(thread_id), t0);
}

TxnDescriptor* TimedCc::BeginReadOnly(uint32_t thread_id) {
  const uint64_t t0 = Start();
  return Began(inner_->BeginReadOnly(thread_id), t0);
}

Status TimedCc::Read(TxnDescriptor* t, uint32_t table_id, uint64_t key, void* out) {
  Worker& w = *workers_[t->thread_id];
  MaybeYield(w);
  const uint64_t t0 = Start();
  Status st = inner_->Read(t, table_id, key, out);
  Finish(w, CallKind::kRead, t0);
  return st;
}

Status TimedCc::Update(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                       const void* data, uint32_t size, uint32_t field_offset) {
  Worker& w = *workers_[t->thread_id];
  MaybeYield(w);
  const uint64_t t0 = Start();
  Status st = inner_->Update(t, table_id, key, data, size, field_offset);
  Finish(w, CallKind::kWrite, t0);
  if (st.ok() && table_id == tracked_table_ && field_offset == 0 &&
      size == sizeof(uint64_t)) {
    uint64_t value;
    std::memcpy(&value, data, sizeof(value));
    w.ledger.pending_writes.emplace_back(key, value);
  }
  return st;
}

Status TimedCc::Insert(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                       const void* payload) {
  Worker& w = *workers_[t->thread_id];
  MaybeYield(w);
  const uint64_t t0 = Start();
  Status st = inner_->Insert(t, table_id, key, payload);
  Finish(w, CallKind::kWrite, t0);
  if (st.ok() && table_id < WorkerLedger::kMaxTables) w.ledger.pending_inserts[table_id]++;
  return st;
}

Status TimedCc::Remove(TxnDescriptor* t, uint32_t table_id, uint64_t key) {
  Worker& w = *workers_[t->thread_id];
  MaybeYield(w);
  const uint64_t t0 = Start();
  Status st = inner_->Remove(t, table_id, key);
  Finish(w, CallKind::kWrite, t0);
  return st;
}

Status TimedCc::ScanVia(bool snapshot, TxnDescriptor* t, uint32_t table_id,
                        uint64_t start_key, uint64_t end_key, uint64_t limit,
                        rocc::ScanConsumer* consumer) {
  Worker& w = *workers_[t->thread_id];
  w.saw_scan = true;
  ScanRecord rec;
  rec.table_id = table_id;
  rec.start_key = start_key;
  rec.end_key = end_key;
  rec.limit = limit;
  RecordingConsumer recorder(consumer, &rec, trace_ ? consumer_yield_every_ : 0);
  const uint64_t t0 = Start();
  Status st = snapshot
                  ? inner_->SnapshotScan(t, table_id, start_key, end_key, limit, &recorder)
                  : inner_->Scan(t, table_id, start_key, end_key, limit, &recorder);
  Finish(w, CallKind::kScan, t0, recorder.inner_ns());
  w.calls.scan_rows += rec.count;
  if (st.ok()) w.ledger.AddScan(rec);
  return st;
}

Status TimedCc::Scan(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                     uint64_t end_key, uint64_t limit, rocc::ScanConsumer* consumer) {
  return ScanVia(false, t, table_id, start_key, end_key, limit, consumer);
}

Status TimedCc::SnapshotScan(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                             uint64_t end_key, uint64_t limit,
                             rocc::ScanConsumer* consumer) {
  return ScanVia(true, t, table_id, start_key, end_key, limit, consumer);
}

Status TimedCc::Commit(TxnDescriptor* t) {
  // The descriptor is retired inside Commit: take what we need first.
  Worker& w = *workers_[t->thread_id];
  const uint64_t t0 = Start();
  Status st = inner_->Commit(t);
  Finish(w, CallKind::kCommit, t0);
  if (st.ok()) {
    w.calls.commit_ok++;
    w.ledger.Commit();
  } else {
    w.ledger.Drop();
  }
  return st;
}

void TimedCc::Abort(TxnDescriptor* t) {
  Worker& w = *workers_[t->thread_id];
  const uint64_t t0 = Start();
  inner_->Abort(t);
  Finish(w, CallKind::kAbort, t0);
  w.ledger.Drop();
}

}  // namespace bench
