#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"
#include "storage/database.h"
#include "workload/tpcc/tpcc.h"

namespace bench {

/// Outcome of one output check: `ok`, or the first violation found.
struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Every committed scan of the ledgers' dense table delivered exactly the
/// requested keys (ScanIsExact, applied as each attempt committed).
CheckResult CheckDenseScans(const std::vector<const WorkerLedger*>& ledgers);

/// After a YCSB run: the table still holds keys 0..num_rows-1, all visible
/// and unlocked; every row holds either its loaded value (the key, in field
/// 0, the rest zero) when no committed attempt wrote it, or the value of one
/// worker's last committed write to it. A value from an aborted attempt, or
/// one its own worker later overwrote, fails the check.
CheckResult CheckYcsbRows(const rocc::Database& db, uint32_t table_id,
                          uint64_t num_rows,
                          const std::vector<const WorkerLedger*>& ledgers);

/// Multi-version store: after GcQuiesce no version node is live.
CheckResult CheckVersionsReclaimed(uint64_t live_nodes_after_quiesce);

/// TPC-C consistency conditions 1-4 (TPC-C 5.11 §3.3.2.1-4), computed from
/// the tables: W_YTD = sum(D_YTD); D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID);
/// max(NO_O_ID) - min(NO_O_ID) + 1 = rows in NEW-ORDER; sum(O_OL_CNT) = rows
/// in ORDER-LINE, per warehouse or district.
CheckResult CheckTpccConsistency(const rocc::Database& db,
                                 const rocc::tpcc::TableIds& tables,
                                 uint32_t num_warehouses);

/// Visible rows in a table.
uint64_t CountVisibleRows(const rocc::Database& db, uint32_t table_id);

/// The order table grew by exactly the orders the committed attempts
/// inserted.
CheckResult CheckOrderGrowth(uint64_t rows_before, uint64_t rows_after,
                             uint64_t committed_inserts);

/// Two databases hold the same visible rows (keys and payload bytes) in
/// every table: the recovered copy reproduces the live one.
CheckResult CheckSameRows(const rocc::Database& live, const rocc::Database& recovered);

}  // namespace bench
