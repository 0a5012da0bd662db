#ifndef KUCNET_UTIL_STATUS_H_
#define KUCNET_UTIL_STATUS_H_

#include <sstream>
#include <string>
#include <utility>

#include "util/logging.h"

/// \file
/// Recoverable-error plumbing.
///
/// Every fallible operation — IO, checkpoint and dataset loading, and the
/// cancellable serving stages (PPR push, BFS, graph build, forward pass) —
/// has exactly one entry point, a `Try*` function that returns a `Status`.
/// The caller decides between retrying, falling back to a previous snapshot,
/// reporting the error, and aborting; a call site for which failure can only
/// be a bug aborts with `KUC_CHECK_OK`.

namespace kucnet {

/// Success or an error with a human-readable message. Cheap to move.
class Status {
 public:
  /// Default-constructed status is OK.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    Status s;
    s.ok_ = false;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return ok_; }
  const std::string& message() const { return message_; }

 private:
  bool ok_ = true;
  std::string message_;
};

namespace internal_status {

/// Stream-style builder so call sites can write
/// `return ErrorStatus() << path << ":" << line << ": bad row";`.
class ErrorBuilder {
 public:
  template <typename T>
  ErrorBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  operator Status() const { return Status::Error(stream_.str()); }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_status

/// Starts a streamed error status.
inline internal_status::ErrorBuilder ErrorStatus() {
  return internal_status::ErrorBuilder();
}

}  // namespace kucnet

/// Propagates a non-OK status to the caller.
#define KUC_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::kucnet::Status kuc_status_tmp_ = (expr);     \
    if (!kuc_status_tmp_.ok()) return kuc_status_tmp_; \
  } while (0)

/// Aborts with the status message when `expr` (a Status) is not OK. For call
/// sites where failure is a bug, e.g. a stage run under an unbounded
/// `ExecContext()`, which never cancels. More context may be streamed:
/// `KUC_CHECK_OK(DecodeSnapshot(...)) << "rollback failed";`
#define KUC_CHECK_OK(expr)                                                  \
  for (const ::kucnet::Status kuc_check_ok_ = (expr); !kuc_check_ok_.ok();) \
  ::kucnet::internal_logging::FatalMessage(__FILE__, __LINE__, #expr)       \
          .stream()                                                         \
      << kuc_check_ok_.message() << " "

#endif  // KUCNET_UTIL_STATUS_H_
