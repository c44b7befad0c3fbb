#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>

#include "storage/row.h"

namespace bench {

using rocc::Row;
using rocc::TidWord;

namespace {

CheckResult Fail(CheckResult r, std::string detail) {
  r.ok = false;
  r.detail = std::move(detail);
  return r;
}

std::string Key(uint64_t k) { return std::to_string(k); }

bool Visible(const Row* row) {
  return !TidWord::IsAbsent(row->tid.load(std::memory_order_acquire));
}

template <typename T>
T PayloadAs(const Row* row) {
  T v;
  std::memcpy(&v, row->Data(), sizeof(T));
  return v;
}

/// Visible rows of one table in key order, as (key, row).
std::vector<std::pair<uint64_t, const Row*>> VisibleRows(const rocc::Database& db,
                                                         uint32_t table_id,
                                                         uint64_t lo, uint64_t hi) {
  std::vector<std::pair<uint64_t, const Row*>> out;
  db.GetIndex(table_id)->ScanRange(lo, hi, [&](uint64_t key, Row* row) {
    if (Visible(row)) out.emplace_back(key, row);
    return true;
  });
  return out;
}

}  // namespace

CheckResult CheckDenseScans(const std::vector<const WorkerLedger*>& ledgers) {
  CheckResult r{"committed scans delivered the requested keys", true, ""};
  uint64_t checked = 0;
  uint64_t bad = 0;
  const ScanRecord* first = nullptr;
  for (const WorkerLedger* l : ledgers) {
    checked += l->scans_checked;
    bad += l->bad_scan_count;
    if (first == nullptr && !l->bad_scans.empty()) first = &l->bad_scans.front();
  }
  if (bad != 0) {
    std::string what = Key(bad) + " bad scans";
    if (first != nullptr) {
      what += "; scan from " + Key(first->start_key) + " limit " + Key(first->limit) +
              " delivered " + Key(first->count) + " rows [" + Key(first->first_key) +
              ", " + Key(first->last_key) + "]" + (first->contiguous ? "" : " with a gap");
    }
    return Fail(r, what);
  }
  r.detail = Key(checked) + " scans";
  return r;
}

CheckResult CheckYcsbRows(const rocc::Database& db, uint32_t table_id,
                          uint64_t num_rows,
                          const std::vector<const WorkerLedger*>& ledgers) {
  CheckResult r{"rows hold loaded or last committed values", true, ""};
  std::vector<std::pair<uint64_t, uint64_t>> written;  // (key, value)
  for (const WorkerLedger* l : ledgers) {
    l->last_value.ForEach([&](uint64_t k, uint64_t v) { written.emplace_back(k, v); });
  }
  std::sort(written.begin(), written.end());

  uint64_t expect = 0;
  size_t w = 0;
  uint64_t rewritten = 0;
  std::string bad;
  db.GetIndex(table_id)->ScanFrom(0, [&](uint64_t key, Row* row) {
    const uint64_t word = row->tid.load(std::memory_order_acquire);
    if (key != expect || TidWord::IsAbsent(word) || TidWord::IsLocked(word)) {
      bad = "row " + Key(key) + (key != expect ? " out of sequence (expected " +
                                                     Key(expect) + ")"
                                               : " absent or locked");
      return false;
    }
    expect++;
    const char* data = row->Data();
    for (uint32_t i = sizeof(uint64_t); i < row->payload_size; i++) {
      if (data[i] != 0) {
        bad = "row " + Key(key) + " has a non-zero byte past field 0";
        return false;
      }
    }
    uint64_t value;
    std::memcpy(&value, data, sizeof(value));
    while (w < written.size() && written[w].first < key) w++;
    bool any = false;
    bool match = false;
    for (size_t i = w; i < written.size() && written[i].first == key; i++) {
      any = true;
      match = match || written[i].second == value;
    }
    if (any) rewritten++;
    if (any ? !match : value != key) {
      bad = "row " + Key(key) + " holds " + Key(value) +
            (any ? ", no worker's last committed value" : ", not its loaded value");
      return false;
    }
    return true;
  });
  if (!bad.empty()) return Fail(r, bad);
  if (expect != num_rows) {
    return Fail(r, "table holds " + Key(expect) + " rows, loaded " + Key(num_rows));
  }
  r.detail = Key(num_rows) + " rows, " + Key(rewritten) + " rewritten";
  return r;
}

CheckResult CheckVersionsReclaimed(uint64_t live_nodes_after_quiesce) {
  CheckResult r{"GcQuiesce leaves no live version node", true, ""};
  if (live_nodes_after_quiesce != 0) {
    return Fail(r, Key(live_nodes_after_quiesce) + " version nodes still live");
  }
  return r;
}

CheckResult CheckTpccConsistency(const rocc::Database& db,
                                 const rocc::tpcc::TableIds& tables,
                                 uint32_t num_warehouses) {
  using namespace rocc::tpcc;
  CheckResult r{"TPC-C consistency conditions 1-4", true, ""};
  for (uint32_t w = 0; w < num_warehouses; w++) {
    const Row* wrow = db.GetIndex(tables.warehouse)->Get(WarehouseKey(w));
    if (wrow == nullptr) return Fail(r, "warehouse " + Key(w) + " missing");
    const double w_ytd = PayloadAs<WarehouseRow>(wrow).w_ytd;
    double d_sum = 0;
    for (uint32_t d = 0; d < kDistrictsPerWarehouse; d++) {
      const Row* drow = db.GetIndex(tables.district)->Get(DistrictKey(w, d));
      if (drow == nullptr) return Fail(r, "district " + Key(DistrictKey(w, d)) + " missing");
      const DistrictRow dist = PayloadAs<DistrictRow>(drow);
      d_sum += dist.d_ytd;
      const std::string where = "district " + Key(DistrictKey(w, d));

      const uint64_t lo = OrderKey(w, d, 0);
      const uint64_t hi = (DistrictKey(w, d) + 1) << 24;
      const auto orders = VisibleRows(db, tables.order, lo, hi);
      const auto new_orders = VisibleRows(db, tables.new_order, lo, hi);
      const auto lines = VisibleRows(db, tables.order_line, lo << 4, hi << 4);

      // Condition 2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
      const uint64_t max_o = orders.empty() ? 0 : (orders.back().first & 0xFFFFFF);
      if (dist.d_next_o_id - 1 != max_o) {
        return Fail(r, "condition 2: " + where + " d_next_o_id " +
                           Key(dist.d_next_o_id) + " but max(o_id) " + Key(max_o));
      }
      if (!new_orders.empty()) {
        const uint64_t max_no = PayloadAs<NewOrderRow>(new_orders.back().second).no_o_id;
        const uint64_t min_no = PayloadAs<NewOrderRow>(new_orders.front().second).no_o_id;
        if (max_no != max_o) {
          return Fail(r, "condition 2: " + where + " max(no_o_id) " + Key(max_no) +
                             " but max(o_id) " + Key(max_o));
        }
        // Condition 3: the new-order queue is one gap-free run of ids.
        if (max_no - min_no + 1 != new_orders.size()) {
          return Fail(r, "condition 3: " + where + " new-order ids [" + Key(min_no) +
                             ", " + Key(max_no) + "] but " +
                             Key(new_orders.size()) + " rows");
        }
      }
      // Condition 4: sum(O_OL_CNT) = rows in ORDER-LINE.
      uint64_t ol_sum = 0;
      for (const auto& [key, row] : orders) ol_sum += PayloadAs<OrderRow>(row).o_ol_cnt;
      if (ol_sum != lines.size()) {
        return Fail(r, "condition 4: " + where + " sum(o_ol_cnt) " + Key(ol_sum) +
                           " but " + Key(lines.size()) + " order lines");
      }
    }
    // Condition 1: W_YTD = sum(D_YTD), up to rounding of the double sums.
    if (std::fabs(w_ytd - d_sum) > 1e-9 * std::fabs(w_ytd) + 1e-3) {
      return Fail(r, "condition 1: warehouse " + Key(w) + " w_ytd " +
                         std::to_string(w_ytd) + " but sum(d_ytd) " +
                         std::to_string(d_sum));
    }
  }
  r.detail = Key(num_warehouses) + " warehouses";
  return r;
}

uint64_t CountVisibleRows(const rocc::Database& db, uint32_t table_id) {
  uint64_t n = 0;
  db.GetIndex(table_id)->ScanFrom(0, [&](uint64_t, Row* row) {
    n += Visible(row) ? 1 : 0;
    return true;
  });
  return n;
}

CheckResult CheckOrderGrowth(uint64_t rows_before, uint64_t rows_after,
                             uint64_t committed_inserts) {
  CheckResult r{"order table grew by the committed NewOrders", true, ""};
  if (rows_after != rows_before + committed_inserts) {
    return Fail(r, "order rows " + Key(rows_before) + " -> " + Key(rows_after) +
                       " but " + Key(committed_inserts) + " committed inserts");
  }
  r.detail = Key(committed_inserts) + " orders";
  return r;
}

CheckResult CheckSameRows(const rocc::Database& live, const rocc::Database& recovered) {
  CheckResult r{"recovery reproduces the live database", true, ""};
  if (live.NumTables() != recovered.NumTables()) {
    return Fail(r, "table counts differ");
  }
  uint64_t rows = 0;
  for (uint32_t t = 0; t < live.NumTables(); t++) {
    const auto a = VisibleRows(live, t, 0, ~0ULL);
    const auto b = VisibleRows(recovered, t, 0, ~0ULL);
    const std::string table = live.GetTable(t)->name();
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; i++) {
      if (a[i].first != b[i].first) {
        return Fail(r, table + ": live row " + Key(a[i].first) + " vs recovered row " +
                           Key(b[i].first));
      }
      const uint32_t size = a[i].second->payload_size;
      if (size != b[i].second->payload_size ||
          std::memcmp(a[i].second->Data(), b[i].second->Data(), size) != 0) {
        return Fail(r, table + ": row " + Key(a[i].first) + " differs");
      }
    }
    if (a.size() != b.size()) {
      return Fail(r, table + ": " + Key(a.size()) + " live rows vs " + Key(b.size()) +
                         " recovered");
    }
    rows += a.size();
  }
  r.detail = Key(rows) + " rows";
  return r;
}

}  // namespace bench
