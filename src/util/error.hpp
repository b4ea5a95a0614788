// Typed error hierarchy of the system.
//
// Every recoverable failure thrown across a library boundary derives from
// `bds::Error`, which itself derives from `std::runtime_error` so existing
// generic handlers (and tests) keep working. The categories match the ways
// a run can fail for reasons outside the code's control:
//
//   * ParseError      -- malformed external input (BLIF text, cube strings);
//   * NetworkError    -- a structurally invalid network (duplicate signal
//                        names, SOP width mismatch, combinational cycles);
//   * SerializeError  -- a malformed, truncated or oversized bdsd wire
//                        frame (service/protocol.hpp);
//   * BudgetExceeded  -- a resource ceiling of a ResourceBudget
//                        (util/budget.hpp) was hit: live BDD nodes, bytes,
//                        or the wall-clock deadline.
//
// Programming-contract violations (an empty Bdd handle, a non-permutation
// order) are *not* errors in this sense: they abort via the
// bdd::detail::invalid_* hooks because the process state can no longer be
// trusted. Everything here unwinds cleanly and leaves all objects valid.
#pragma once

#include <stdexcept>
#include <string>

namespace bds {

/// Base of all recoverable, typed errors thrown by the libraries.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Malformed external input text (BLIF files, cube/SOP strings).
class ParseError : public Error {
 public:
  using Error::Error;
};

/// A structurally invalid Boolean network: duplicate signal names, a node
/// whose SOP width disagrees with its fanin count, or a combinational cycle.
class NetworkError : public Error {
 public:
  using Error::Error;
};

/// A malformed, truncated, oversized or wrong-revision bdsd wire frame
/// (service/protocol.hpp). Like ParseError this is external input failing
/// validation, not a programming error.
class SerializeError : public Error {
 public:
  using Error::Error;
};

/// A ResourceBudget ceiling was exceeded. Carries which resource tripped so
/// callers can degrade differently per kind (a node ceiling is deterministic
/// and local; a deadline is global and final).
class BudgetExceeded : public Error {
 public:
  enum class Resource {
    kNodes,     ///< live-BDD-node ceiling of one manager
    kBytes,     ///< byte ceiling of one manager
    kDeadline,  ///< the wall-clock deadline passed
  };

  /// `what` should name the ceiling and the value that crossed it.
  BudgetExceeded(Resource resource, const std::string& what)
      : Error(what), resource_(resource) {}

  /// Which resource ceiling tripped.
  Resource resource() const { return resource_; }

  /// Short lowercase name of `r` for log lines and CLI diagnostics.
  static const char* resource_name(Resource r) {
    switch (r) {
      case Resource::kNodes:
        return "nodes";
      case Resource::kBytes:
        return "bytes";
      case Resource::kDeadline:
        return "deadline";
    }
    return "?";
  }

 private:
  Resource resource_;
};

}  // namespace bds
