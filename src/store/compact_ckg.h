#ifndef KUCNET_STORE_COMPACT_CKG_H_
#define KUCNET_STORE_COMPACT_CKG_H_

#include "graph/ckg.h"

/// \file
/// Compatibility shim. The compact u32/u16 CSR is now `Ckg` itself
/// (graph/ckg.h); this header and the alias below survive only because
/// benchmark/ still includes this path and names `kucnet::CompactCkg`, and
/// benchmark/ changes only together with its own definition. The next change
/// to the benchmark switches it to `Ckg` and deletes this file.

namespace kucnet {

using CompactCkg = Ckg;

}  // namespace kucnet

#endif  // KUCNET_STORE_COMPACT_CKG_H_
