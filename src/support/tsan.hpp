/// \file tsan.hpp
/// \brief Happens-before edges of an OpenMP region, stated to
/// ThreadSanitizer.
///
/// libgomp is not built with TSan, so TSan cannot see the fork and join of
/// a parallel region or the lock of an `omp critical`: every later write the
/// caller makes to memory a worker touched is reported as a race.  A region
/// states its edges on one sync address: tsan_release before the fork and
/// at the end of each worker, tsan_acquire at the start of each worker and
/// after the join (and around a critical section's body).  No-ops in other
/// builds.
#ifndef RIPPLES_SUPPORT_TSAN_HPP
#define RIPPLES_SUPPORT_TSAN_HPP

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace ripples {

inline void tsan_release([[maybe_unused]] void *sync) {
#if defined(__SANITIZE_THREAD__)
  __tsan_release(sync);
#endif
}

inline void tsan_acquire([[maybe_unused]] void *sync) {
#if defined(__SANITIZE_THREAD__)
  __tsan_acquire(sync);
#endif
}

} // namespace ripples

#endif // RIPPLES_SUPPORT_TSAN_HPP
