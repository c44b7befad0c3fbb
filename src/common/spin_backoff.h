#pragma once

#include <cstdint>
#include <thread>

#include "common/cacheline.h"
#include "common/fiber.h"

namespace rocc {

/// Pause + capped exponential backoff for spin loops.
///
/// Each Pause() burns an exponentially growing (capped) number of pause
/// instructions; once the cap is reached a yielding backoff additionally
/// gives the core away so a descheduled lock holder can run.
///
/// Inside a fiber a *yielding* backoff switches fibers immediately: spinning
/// is pure waste on the single OS thread, and a waiter that refuses to yield
/// cannot see a holder fiber suspended at a yield point release its lock.
/// The no-yield variant keeps burning pauses, for bounded loops on OS
/// threads where giving the core away would only add latency.
class SpinBackoff {
 public:
  explicit SpinBackoff(uint32_t cap_spins = 512, bool yield = true)
      : cap_(cap_spins), yield_(yield) {}

  void Pause() {
    if (yield_ && FiberScheduler::InFiber()) {
      FiberScheduler::YieldFiber();
      return;
    }
    for (uint32_t i = 0; i < spins_; i++) CpuRelax();
    if (spins_ < cap_) {
      spins_ <<= 1;
    } else if (yield_) {
      std::this_thread::yield();
    }
  }

 private:
  uint32_t spins_ = 1;
  const uint32_t cap_;
  const bool yield_;
};

}  // namespace rocc
