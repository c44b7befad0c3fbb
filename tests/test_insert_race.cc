// Regression test for racing inserts of one key on real threads: an
// inserter whose commit aborts after its placeholder row went into the index
// must not take a concurrently committed row of the same key with it.
//
// Thread A inserts key k and reads a hot row that thread B updates just
// before A commits, so A's validation always fails after its lock phase has
// indexed a fresh placeholder for k. Thread B then inserts k in a retry loop
// while A cleans up. B must either find A's placeholder still locked (and
// retry) or find k unindexed; it must never resurrect A's placeholder in the
// moment between A's unlock and A's unlink, which would commit a row that A
// then removes from the index.
//
// Runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/silo_lrv.h"
#include "cc/txn_handle.h"
#include "core/rocc.h"

namespace rocc {
namespace {

constexpr uint64_t kHotKey = 0;
constexpr uint64_t kRounds = 20000;

std::unique_ptr<ConcurrencyControl> MakeProtocol(const std::string& name,
                                                 Database* db, uint32_t table) {
  if (name == "rocc") {
    RoccOptions opts;
    RangeConfig rc;
    rc.table_id = table;
    rc.key_max = kRounds + 1;
    rc.num_ranges = 16;
    rc.ring_capacity = 512;
    opts.tables = {rc};
    return std::make_unique<Rocc>(db, 2, std::move(opts));
  }
  return std::make_unique<SiloLrv>(db, 2);
}

/// Spin until `word` reaches `value`, giving the core away between checks
/// so the test also makes progress on a single core.
void WaitFor(const std::atomic<uint64_t>& word, uint64_t value) {
  while (word.load(std::memory_order_acquire) < value) std::this_thread::yield();
}

class InsertAbortRaceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InsertAbortRaceTest, CommittedInsertsStayIndexed) {
  Database db;
  const uint32_t table = db.CreateTable("t", Schema({{"v", 8, 0}}));
  const uint64_t zero = 0;
  db.LoadRow(table, kHotKey, &zero);
  auto cc = MakeProtocol(GetParam(), &db, table);

  // Round r uses key r + 1. A publishes a_ready = r + 1 once its
  // transaction has read the hot row; B publishes hot_bumped = r + 1 once
  // it has committed an update of the hot row, which dooms A's commit.
  std::atomic<uint64_t> a_ready{0};
  std::atomic<uint64_t> hot_bumped{0};
  std::atomic<uint64_t> a_done{0};
  std::vector<uint64_t> committed_by_a, committed_by_b;

  std::thread a([&] {
    for (uint64_t r = 0; r < kRounds; r++) {
      const uint64_t key = r + 1;
      TxnHandle txn(cc.get(), 0);
      uint64_t hot = 0;
      const bool read_ok = txn.Read(table, kHotKey, &hot).ok();
      const uint64_t v = 1;
      const bool insert_ok = read_ok && txn.Insert(table, key, &v).ok();
      a_ready.store(r + 1, std::memory_order_release);
      WaitFor(hot_bumped, r + 1);
      if (insert_ok && txn.Commit().ok()) committed_by_a.push_back(key);
      a_done.store(r + 1, std::memory_order_release);
    }
  });
  std::thread b([&] {
    for (uint64_t r = 0; r < kRounds; r++) {
      const uint64_t key = r + 1;
      WaitFor(a_ready, r + 1);
      for (;;) {
        TxnHandle txn(cc.get(), 1);
        const uint64_t hot = r + 1;
        if (txn.Update(table, kHotKey, &hot, sizeof(hot), 0).ok() &&
            txn.Commit().ok()) {
          break;
        }
      }
      hot_bumped.store(r + 1, std::memory_order_release);
      // Start inserting once A's lock phase has indexed its placeholder, so
      // B's attempts overlap A's abort.
      for (uint32_t spins = 0;
           db.GetIndex(table)->Get(key) == nullptr &&
           a_done.load(std::memory_order_acquire) < r + 1;
           spins++) {
        if (spins % 1024 == 1023) std::this_thread::yield();
      }
      for (;;) {
        TxnHandle txn(cc.get(), 1);
        const uint64_t v = 2;
        const Status st = txn.Insert(table, key, &v);
        if (st.code() == Code::kKeyExists) break;  // A's insert committed
        if (st.ok() && txn.Commit().ok()) {
          committed_by_b.push_back(key);
          break;
        }
      }
    }
  });
  a.join();
  b.join();

  // Every round ends with k committed by exactly one of the two threads.
  EXPECT_EQ(committed_by_a.size() + committed_by_b.size(), kRounds);
  EXPECT_EQ(db.GetIndex(table)->Size(), kRounds + 1);
  uint64_t lost = 0;
  for (const std::vector<uint64_t>* keys : {&committed_by_a, &committed_by_b}) {
    for (uint64_t key : *keys) {
      const Row* row = db.GetIndex(table)->Get(key);
      if (row == nullptr || row->IsAbsent()) lost++;
    }
  }
  EXPECT_EQ(lost, 0u) << "committed rows unlinked from the index";
}

INSTANTIATE_TEST_SUITE_P(OccProtocols, InsertAbortRaceTest,
                         ::testing::Values("lrv", "rocc"),
                         [](const auto& pinfo) { return pinfo.param; });

}  // namespace
}  // namespace rocc
