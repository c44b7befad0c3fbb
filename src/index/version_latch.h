#pragma once

#include <atomic>
#include <cstdint>

#include "common/spin_backoff.h"

namespace rocc {

/// Optimistic version latch for B+Tree nodes (optimistic lock coupling, Leis
/// et al., "The ART of Practical Synchronization"). One 64-bit word:
///   [ version : 63 | locked : 1 ]
/// Versions are even when unlocked and advance by one step (word += 2) per
/// modifying writer, so an unlocked word IS its version.
///
/// Reader API (latch-free):
///   uint64_t v = latch.ReadLockOrRestart();   // stable version snapshot
///   ... read node ...
///   if (!latch.CheckOrRestart(v)) restart;
///
/// Writer API:
///   if (!latch.UpgradeToWriteLockOrRestart(v)) restart;
///   ... modify node ...
///   latch.WriteUnlock();
class VersionLatch {
 public:
  static constexpr uint64_t kLockedBit = 1;

  /// Returns a stable (unlocked) version snapshot, waiting out writers with
  /// a yielding backoff: under fibers the holder may be a suspended fiber on
  /// this same OS thread, which a non-yielding spin would never let run.
  uint64_t ReadLockOrRestart() const {
    uint64_t v = word_.load(std::memory_order_acquire);
    if ((v & kLockedBit) == 0) return v;
    SpinBackoff backoff(/*cap_spins=*/256, /*yield=*/true);
    while (((v = word_.load(std::memory_order_acquire)) & kLockedBit) != 0) {
      backoff.Pause();
    }
    return v;
  }

  bool CheckOrRestart(uint64_t expected) const {
    // Full-word compare rejects both a version change and a held lock.
    return word_.load(std::memory_order_acquire) == expected;
  }

  /// Atomically upgrade a read snapshot to the write lock with one CAS.
  /// Returns false when the version moved or the lock is held (caller
  /// restarts).
  bool UpgradeToWriteLockOrRestart(uint64_t expected) {
    return word_.compare_exchange_strong(expected, expected | kLockedBit,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// Release after modifying: advances the version by one step so every
  /// reader snapshot taken before the acquire fails validation.
  void WriteUnlock() {
    // Locked word is (v | 1) with v even; +1 yields v + 2.
    word_.fetch_add(1, std::memory_order_release);
  }

  bool IsLocked() const {
    return (word_.load(std::memory_order_acquire) & kLockedBit) != 0;
  }

  /// Raw word, for tests and invariant checks.
  uint64_t RawWord() const { return word_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> word_{0};
};
static_assert(sizeof(VersionLatch) == sizeof(uint64_t),
              "VersionLatch must stay one word: it is embedded per tree node");

}  // namespace rocc
