#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bench {

/// Open-addressing map from a row key to the last value committed to it.
/// Keys must be below kEmpty. Grows at half load.
class LastValueMap {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;

  LastValueMap() : slots_(1024, {kEmpty, 0}) {}

  void Assign(uint64_t key, uint64_t value);

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.first != kEmpty) fn(s.first, s.second);
    }
  }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> slots_;
  size_t size_ = 0;
};

/// One scan as the benchmark saw it through its own consumer.
struct ScanRecord {
  uint32_t table_id = 0;
  uint64_t start_key = 0;
  uint64_t end_key = 0;  ///< 0 = unbounded
  uint64_t limit = 0;    ///< 0 = unbounded
  uint64_t first_key = 0;
  uint64_t last_key = 0;
  uint64_t count = 0;
  bool contiguous = true;  ///< every key was the previous key + 1
  bool increasing = true;  ///< keys strictly increased
  bool in_bounds = true;   ///< every key in [start_key, end_key)
  bool stopped = false;    ///< the caller's consumer ended the scan early

  void Observe(uint64_t key);
};

/// True when a scan of a dense table (keys 0..rows-1, no inserts or deletes)
/// delivered exactly the requested keys: `limit` rows from start_key on (fewer
/// only at the table's end or when the caller's consumer stopped it), each
/// the previous key + 1.
bool ScanIsExact(const ScanRecord& s, uint64_t rows);

/// What one worker's attempts wrote and read, kept apart from the engine.
/// The pending part belongs to the attempt in flight; Commit folds it into
/// the committed part, Abort (or a failed Commit) drops it.
struct WorkerLedger {
  static constexpr uint32_t kMaxTables = 16;

  static constexpr uint32_t kNoTable = ~0u;
  static constexpr size_t kKeptBadScans = 8;

  /// Scans of this table are checked with ScanIsExact as their attempt
  /// commits; scans of other tables are not kept.
  uint32_t dense_table = kNoTable;
  uint64_t dense_rows = 0;

  // Attempt in flight.
  std::vector<std::pair<uint64_t, uint64_t>> pending_writes;  // (key, value)
  std::vector<ScanRecord> pending_scans;
  uint64_t pending_inserts[kMaxTables] = {};

  // Committed attempts.
  LastValueMap last_value;  ///< tracked table: key -> last committed value
  uint64_t scans_checked = 0;
  uint64_t bad_scan_count = 0;
  std::vector<ScanRecord> bad_scans;  ///< the first kKeptBadScans failures
  uint64_t inserts[kMaxTables] = {};

  void AddScan(const ScanRecord& s) {
    if (s.table_id == dense_table) pending_scans.push_back(s);
  }

  /// Fold the attempt in flight into the committed part.
  void Commit();
  /// Forget the attempt in flight.
  void Drop();
};

}  // namespace bench
