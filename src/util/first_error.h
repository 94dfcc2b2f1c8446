// First-exception capture for worker pools.  An exception escaping a
// std::thread's function ends the process in std::terminate; a pool
// worker instead calls capture() from its catch block, the other
// workers poll failed() to stop claiming work, and the caller rethrows
// the first captured exception with rethrow_if_any() after joining.
#pragma once

#include <atomic>
#include <exception>
#include <mutex>

namespace diurnal::util {

class FirstError {
 public:
  /// Records the exception being handled unless one is recorded
  /// already.  Call from inside a catch block.
  void capture() noexcept {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_release);
  }

  /// True once any worker has captured an exception.
  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  /// Rethrows the first captured exception, if any.  Call after every
  /// worker has joined.
  void rethrow_if_any() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
};

}  // namespace diurnal::util
