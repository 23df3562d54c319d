// serve/errors — the typed error contract of the serving runtime.
//
// Every rejection or failure the server can deliver through a request
// future is a ServeError carrying a stable ErrorCode, so clients (and
// tests) dispatch on the code instead of matching message strings.  The
// class derives from std::runtime_error, which keeps pre-existing callers
// that caught the old stringly-typed errors working unchanged.
//
// Validation failures (bad shape, NaN without missing support, unknown
// model) intentionally stay std::invalid_argument: they describe a
// malformed *request*, not a server condition, and are never retryable.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace flint::serve {

/// Stable error codes of the serving runtime.  Values are part of the API:
/// new codes append, existing ones never renumber.
enum class ErrorCode : int {
  kQueueFull = 1,        ///< request-count backpressure bound hit
  kOverloaded = 2,       ///< admission control shed this request (sample
                         ///< bound, degrade ladder, or priority eviction);
                         ///< retry_after_us() carries the backoff hint
  kStopped = 3,          ///< submit after (or racing) stop()
  kDeadlineExceeded = 4, ///< the request's deadline expired in the queue
  kStalled = 5,          ///< a stalled worker was failed over by the
                         ///< watchdog while holding this request
  kExecutionFailed = 6,  ///< the predictor (or batch assembly) threw
};

inline const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kStopped: return "stopped";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kStalled: return "stalled";
    case ErrorCode::kExecutionFailed: return "execution_failed";
  }
  return "unknown";
}

/// The typed serving error.  what() stays human-readable; code() is the
/// dispatch surface; retry_after_us() is a backoff hint (0 = none) set on
/// kOverloaded/kQueueFull rejections.
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(ErrorCode code, const std::string& message,
                      std::uint32_t retry_after_us = 0)
      : std::runtime_error("serve: [" + std::string(to_string(code)) + "] " +
                           message),
        code_(code),
        retry_after_us_(retry_after_us) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] std::uint32_t retry_after_us() const noexcept {
    return retry_after_us_;
  }

 private:
  ErrorCode code_;
  std::uint32_t retry_after_us_;
};

}  // namespace flint::serve
