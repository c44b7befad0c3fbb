#pragma once

// ThreadSanitizer helpers for the deliberately-racy optimistic reads of this
// codebase: seqlock-style payload copies (ReadRecordNoWait) and the B+Tree's
// optimistic node reads (index/btree.cc). The copy races with a committer's
// in-place apply by design; the surrounding version protocol (load tid,
// copy, acquire fence, re-load tid, discard on mismatch) rejects every torn
// result, so the race cannot escape. TSan has
// no way to see that argument, so the copy is bracketed with ignore-reads
// annotations — which the memcpy interceptor honors, unlike
// no_sanitize("thread") on the caller. Keep the bracket tight: anything
// else a thread reads while "ignoring" is invisible to the race detector.

#if defined(__SANITIZE_THREAD__)
#define ROCC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ROCC_TSAN 1
#endif
#endif

#ifdef ROCC_TSAN
extern "C" {
void AnnotateIgnoreReadsBegin(const char* file, int line);
void AnnotateIgnoreReadsEnd(const char* file, int line);
}
namespace rocc {
inline void TsanIgnoreReadsBegin() {
  AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
}
inline void TsanIgnoreReadsEnd() { AnnotateIgnoreReadsEnd(__FILE__, __LINE__); }
}  // namespace rocc
#else
namespace rocc {
inline void TsanIgnoreReadsBegin() {}
inline void TsanIgnoreReadsEnd() {}
}  // namespace rocc
#endif
