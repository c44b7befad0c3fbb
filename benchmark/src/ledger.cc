#include "ledger.h"

#include <algorithm>

namespace bench {

namespace {

uint64_t Mix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  return k;
}

}  // namespace

void LastValueMap::Assign(uint64_t key, uint64_t value) {
  if ((size_ + 1) * 2 > slots_.size()) {
    std::vector<std::pair<uint64_t, uint64_t>> old(slots_.size() * 2, {kEmpty, 0});
    old.swap(slots_);
    size_ = 0;
    for (const auto& s : old) {
      if (s.first != kEmpty) Assign(s.first, s.second);
    }
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
    if (slots_[i].first == key) {
      slots_[i].second = value;
      return;
    }
    if (slots_[i].first == kEmpty) {
      slots_[i] = {key, value};
      size_++;
      return;
    }
  }
}

void ScanRecord::Observe(uint64_t key) {
  if (count == 0) {
    first_key = key;
  } else {
    if (key != last_key + 1) contiguous = false;
    if (key <= last_key) increasing = false;
  }
  if (key < start_key || (end_key != 0 && key >= end_key)) in_bounds = false;
  last_key = key;
  count++;
}

bool ScanIsExact(const ScanRecord& s, uint64_t rows) {
  const uint64_t end = s.end_key == 0 ? rows : std::min(s.end_key, rows);
  uint64_t want = end > s.start_key ? end - s.start_key : 0;
  if (s.limit != 0) want = std::min(want, s.limit);
  const bool exact = s.count == want && s.contiguous && s.increasing && s.in_bounds &&
                     (want == 0 || s.first_key == s.start_key);
  // A scan its caller stopped early must still be a gap-free prefix.
  const bool stopped_prefix = s.stopped && s.contiguous && s.in_bounds &&
                              (s.count == 0 || s.first_key == s.start_key);
  return exact || stopped_prefix;
}

void WorkerLedger::Commit() {
  // A worker's attempts run one at a time, so its last committed write to a
  // key is the only one of its writes that can be the key's final value.
  for (const auto& [key, value] : pending_writes) last_value.Assign(key, value);
  // Checked now rather than kept: a run commits millions of scans.
  for (const ScanRecord& s : pending_scans) {
    scans_checked++;
    if (ScanIsExact(s, dense_rows)) continue;
    bad_scan_count++;
    if (bad_scans.size() < kKeptBadScans) bad_scans.push_back(s);
  }
  for (uint32_t i = 0; i < kMaxTables; i++) {
    inserts[i] += pending_inserts[i];
    pending_inserts[i] = 0;
  }
  pending_writes.clear();
  pending_scans.clear();
}

void WorkerLedger::Drop() {
  pending_writes.clear();
  pending_scans.clear();
  for (uint64_t& n : pending_inserts) n = 0;
}

}  // namespace bench
