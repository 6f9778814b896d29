#ifndef SIMRANK_UTIL_FREELIST_H_
#define SIMRANK_UTIL_FREELIST_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank {

/// Bounded, thread-safe freelist of heap-allocated scratch objects (query
/// workspaces whose construction is O(n)). Acquire pops a parked instance,
/// or builds one with `make` when none is parked; Release parks it again,
/// or drops it when kMaxPooled are already parked. Owners hold the
/// freelist behind a unique_ptr (the mutex is immovable) so they stay
/// movable themselves.
template <typename T>
class Freelist {
 public:
  /// Enough for any realistic number of concurrently borrowing threads,
  /// small enough that a burst cannot pin O(n) scratch forever.
  static constexpr size_t kMaxPooled = 64;

  template <typename Make>
  std::unique_ptr<T> Acquire(Make&& make) SIMRANK_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<T> item = std::move(free_.back());
        free_.pop_back();
        return item;
      }
    }
    return std::forward<Make>(make)();
  }

  void Release(std::unique_ptr<T> item) SIMRANK_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (free_.size() < kMaxPooled) free_.push_back(std::move(item));
  }

  /// Instances currently parked.
  size_t size() const SIMRANK_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return free_.size();
  }

 private:
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<T>> free_ SIMRANK_GUARDED_BY(mutex_);
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_FREELIST_H_
