// Tests of the benchmark's output checks: each check passes on the state a
// real run leaves, and fails once that state is deliberately corrupted.
//
//   check_selftest [--out-dir DIR]     exit 0 when every case behaves

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "checks.h"
#include "harness/runner.h"
#include "log/log_manager.h"
#include "storage/row.h"
#include "timed_cc.h"
#include "workload/tpcc/tpcc.h"
#include "workload/ycsb.h"

namespace {

using bench::CheckResult;
using rocc::Row;

int g_failures = 0;

void Expect(const char* what, const CheckResult& r, bool want_ok) {
  const bool good = r.ok == want_ok;
  std::printf("%-4s %-58s -> %s %s\n", good ? "ok" : "FAIL", what,
              r.ok ? "passes" : "fails:", r.ok ? "" : r.detail.c_str());
  if (!good) g_failures++;
}

template <typename T>
T Get(const Row* row) {
  T v;
  std::memcpy(&v, row->Data(), sizeof(T));
  return v;
}

template <typename T>
void Put(Row* row, const T& v) {
  std::memcpy(row->Data(), &v, sizeof(T));
}

void MarkAbsent(Row* row) {
  row->tid.store(row->tid.load() | rocc::TidWord::kAbsentBit);
}

/// Runs `n` logical transactions of `w` on one worker through the decorator.
void RunTxns(rocc::Workload* w, bench::TimedCc* cc, uint64_t n) {
  rocc::TxnStats stats;
  cc->AttachThread(0, &stats);
  rocc::Rng rng(7);
  for (uint64_t i = 0; i < n; i++) {
    if (!w->RunTxn(cc, 0, rng).ok()) std::printf("warning: a transaction gave up\n");
  }
}

void YcsbCases() {
  rocc::YcsbOptions o;
  o.num_rows = 2000;
  o.theta = 0.9;
  o.scan_length = 50;
  rocc::Database db;
  rocc::YcsbWorkload w(o);
  w.Load(&db);
  auto proto = rocc::CreateProtocol("rocc", &db, w, 1);
  bench::TimedCc cc(proto.get(), 1, false, w.table_id(), 0);
  cc.ledger(0).dense_table = w.table_id();
  cc.ledger(0).dense_rows = o.num_rows;
  RunTxns(&w, &cc, 3000);
  bench::WorkerLedger& ledger = cc.ledger(0);
  const std::vector<const bench::WorkerLedger*> ledgers = {&ledger};
  const uint32_t t = w.table_id();

  Expect("ycsb rows after a real run", bench::CheckYcsbRows(db, t, o.num_rows, ledgers), true);
  Expect("ycsb scans after a real run", bench::CheckDenseScans(ledgers), true);

  // A row rewritten by no committed attempt.
  Row* hot = db.GetIndex(t)->Get(0);
  const uint64_t saved = Get<uint64_t>(hot);
  Put<uint64_t>(hot, saved ^ 0x5a5a5a5a5a5aULL);
  Expect("ycsb row holding an aborted attempt's value",
         bench::CheckYcsbRows(db, t, o.num_rows, ledgers), false);
  Put<uint64_t>(hot, saved);

  // A row still at its loaded value although a committed attempt wrote it.
  uint64_t written_key = ~0ULL;
  ledger.last_value.ForEach([&](uint64_t k, uint64_t) { written_key = k; });
  Row* written = db.GetIndex(t)->Get(written_key);
  const uint64_t kept = Get<uint64_t>(written);
  Put<uint64_t>(written, written_key);
  Expect("ycsb row that lost its committed write",
         bench::CheckYcsbRows(db, t, o.num_rows, ledgers), false);
  Put<uint64_t>(written, kept);

  // A stray byte outside the updated field.
  written->Data()[20] = 1;
  Expect("ycsb row with a stray byte", bench::CheckYcsbRows(db, t, o.num_rows, ledgers),
         false);
  written->Data()[20] = 0;

  // A deleted row.
  const uint64_t word = hot->tid.load();
  MarkAbsent(hot);
  Expect("ycsb table with a deleted row", bench::CheckYcsbRows(db, t, o.num_rows, ledgers),
         false);
  hot->tid.store(word);
  Expect("ycsb rows restored", bench::CheckYcsbRows(db, t, o.num_rows, ledgers), true);

  // Scans that skipped a key, came back short or started late, folded in
  // through a committing attempt as the decorator does.
  auto bad_scan = [&](std::initializer_list<uint64_t> keys) {
    bench::WorkerLedger l;
    l.dense_table = t;
    l.dense_rows = o.num_rows;
    bench::ScanRecord s;
    s.table_id = t;
    s.start_key = 10;
    s.limit = 4;
    for (uint64_t k : keys) s.Observe(k);
    l.AddScan(s);
    l.Commit();
    return bench::CheckDenseScans({&l});
  };
  Expect("exact scan", bad_scan({10, 11, 12, 13}), true);
  Expect("scan with a gap", bad_scan({10, 11, 13, 14}), false);
  Expect("scan that came back short", bad_scan({10, 11, 12}), false);
  Expect("scan that started past its start key", bad_scan({11, 12, 13, 14}), false);

  Expect("no live version node", bench::CheckVersionsReclaimed(0), true);
  Expect("a leaked version node", bench::CheckVersionsReclaimed(1), false);
}

void TpccCases(const std::string& out_dir) {
  using namespace rocc::tpcc;
  rocc::TpccOptions o;
  o.num_warehouses = 1;
  o.bulk_scan_length = 300;
  const std::string dir = out_dir + "/selftest-wal";
  std::filesystem::remove_all(dir);

  rocc::Database db;
  rocc::TpccWorkload w(o);
  w.Load(&db);
  const TableIds& t = w.tables();
  const uint64_t orders_before = bench::CountVisibleRows(db, t.order);
  rocc::LogOptions lo;
  lo.log_dir = dir;
  lo.group_commit_us = 50;
  rocc::LogManager log(lo, 1);
  if (!log.Open().ok()) {
    std::printf("FAIL cannot open %s\n", dir.c_str());
    g_failures++;
    return;
  }
  auto proto = rocc::CreateProtocol("rocc", &db, w, 1);
  bench::TimedCc cc(proto.get(), 1, false, bench::TimedCc::kNoTable, 0);
  cc.AttachLog(&log);
  RunTxns(&w, &cc, 1500);
  log.Stop();

  const uint64_t inserted = cc.ledger(0).inserts[t.order];
  const uint64_t orders_after = bench::CountVisibleRows(db, t.order);
  Expect("order growth after a real run",
         bench::CheckOrderGrowth(orders_before, orders_after, inserted), true);
  Expect("order growth with one order missing",
         bench::CheckOrderGrowth(orders_before, orders_after - 1, inserted), false);
  Expect("tpcc consistency after a real run", bench::CheckTpccConsistency(db, t, 1), true);

  auto corrupt = [&](const char* what, Row* row, const std::function<void()>& change) {
    std::vector<char> saved(row->Data(), row->Data() + row->payload_size);
    const uint64_t word = row->tid.load();
    change();
    Expect(what, bench::CheckTpccConsistency(db, t, 1), false);
    std::memcpy(row->Data(), saved.data(), saved.size());
    row->tid.store(word);
  };
  Row* d0 = db.GetIndex(t.district)->Get(DistrictKey(0, 3));
  corrupt("condition 1: d_ytd off by 5", d0, [&] {
    DistrictRow d = Get<DistrictRow>(d0);
    d.d_ytd += 5;
    Put(d0, d);
  });
  corrupt("condition 2: d_next_o_id advanced", d0, [&] {
    DistrictRow d = Get<DistrictRow>(d0);
    d.d_next_o_id++;
    Put(d0, d);
  });
  // The middle of district 3's new-order queue.
  std::vector<Row*> queue;
  db.GetIndex(t.new_order)
      ->ScanRange(OrderKey(0, 3, 0), OrderKey(0, 4, 0), [&](uint64_t, Row* r) {
        if (!r->IsAbsent()) queue.push_back(r);
        return true;
      });
  if (queue.size() >= 3) {
    Row* mid = queue[queue.size() / 2];
    corrupt("condition 3: a hole in the new-order queue", mid, [&] { MarkAbsent(mid); });
  } else {
    std::printf("FAIL new-order queue too short to corrupt\n");
    g_failures++;
  }
  Row* order = db.GetIndex(t.order)->Get(OrderKey(0, 3, 1));
  corrupt("condition 4: o_ol_cnt off by one", order, [&] {
    OrderRow r = Get<OrderRow>(order);
    r.o_ol_cnt++;
    Put(order, r);
  });
  Expect("tpcc consistency restored", bench::CheckTpccConsistency(db, t, 1), true);

  // Recovery of the run's WAL into a freshly loaded database.
  rocc::Database fresh;
  rocc::TpccWorkload loader(o);
  loader.Load(&fresh);
  rocc::RecoveryStats rs;
  if (!rocc::LogManager::Recover(dir, &fresh, &rs).ok()) {
    std::printf("FAIL Recover\n");
    g_failures++;
    return;
  }
  Expect("recovered copy after a real run", bench::CheckSameRows(db, fresh), true);
  Row* c = db.GetIndex(t.customer)->Get(CustomerKey(0, 1, 7));
  const char saved = c->Data()[0];
  c->Data()[0] = static_cast<char>(saved ^ 1);
  Expect("recovered copy vs a changed live row", bench::CheckSameRows(db, fresh), false);
  c->Data()[0] = saved;
  const uint64_t word = c->tid.load();
  MarkAbsent(c);
  Expect("recovered copy vs a missing live row", bench::CheckSameRows(db, fresh), false);
  c->tid.store(word);
  Expect("recovered copy restored", bench::CheckSameRows(db, fresh), true);
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".bench_out";
  if (argc == 3 && std::strcmp(argv[1], "--out-dir") == 0) out_dir = argv[2];
  std::filesystem::create_directories(out_dir);
  YcsbCases();
  TpccCases(out_dir);
  std::printf("%s: %d case(s) misbehaved\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
