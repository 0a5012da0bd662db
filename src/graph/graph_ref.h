#ifndef KUCNET_GRAPH_GRAPH_REF_H_
#define KUCNET_GRAPH_GRAPH_REF_H_

#include <cstdint>

#include "graph/ckg.h"

/// \file
/// Compatibility shim. There is one graph type, and library code takes
/// `const Ckg*`. benchmark/ still names `kucnet::GraphRef` (built from
/// `&ckg`, used through `UserNode` and `Visit`, and passed where a
/// `const Ckg*` is taken), and benchmark/ changes only together with its own
/// definition. This handle keeps it compiling; the next change to the
/// benchmark switches it to `const Ckg*` and deletes this file.

namespace kucnet {

/// One-pointer handle over a `Ckg`; the graph must outlive it.
class GraphRef {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for `const Ckg*`.
  GraphRef(const Ckg* ckg) : ckg_(ckg) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const Ckg*() const { return ckg_; }

  int64_t UserNode(int64_t user) const { return ckg_->UserNode(user); }

  /// Invokes `fn(const Ckg&)`.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return fn(*ckg_);
  }

 private:
  const Ckg* ckg_;
};

}  // namespace kucnet

#endif  // KUCNET_GRAPH_GRAPH_REF_H_
