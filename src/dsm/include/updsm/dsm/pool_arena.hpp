// Per-worker allocation arenas for the host-parallel execution engine.
//
// Before the bounded worker pool, bar.cpp shared one DiffPool across all
// nodes and every TwinStore/DiffStore carried its own private free-list;
// under the parallel gang the shared pool would need a lock on the hottest
// allocation path of every barrier. Instead each gang worker owns one
// PoolArena, and every node's allocations route to the arena of the worker
// that *owns the node* (Gang::owner_worker) -- not whichever thread happens
// to run -- so the routing is deterministic and, since mid-phase only the
// owning worker executes a node and barrier hooks run on the controller
// with all workers parked (the phase barrier provides the happens-before),
// completely uncontended: no pool is ever touched by two threads at once.
//
// Pool state can never affect simulation results: takers clear or
// fully overwrite recycled buffers (Diff::create_into clears, twin create
// memcpys the whole page), so runs are bit-identical for every worker
// count. The loan counters (takes - recycles) let tests prove arenas never
// leak or cross-serve.
#pragma once

#include "updsm/mem/buffer_pool.hpp"
#include "updsm/mem/diff.hpp"

namespace updsm::dsm {

/// One worker's private pools, padded to a cache line so adjacent arenas
/// never false-share under concurrent mid-phase use.
struct alignas(64) PoolArena {
  /// Diff scratch for every node this worker owns (barrier diff creation,
  /// lmw / async update-push receive copies, lmw retained stores).
  mem::DiffPool diffs{256};
  /// Page-sized buffers: twins and service snapshots.
  mem::BufferPool pages{256};
  /// FlushBatchWriter backing stores, borrowed when a (from, to) batch
  /// slot goes live at stage time and returned once the barrier's release
  /// has consumed the delivered records (Runtime::recycle_delivered) --
  /// retained batch capacity is O(active pairs through bounded pools), not
  /// O(n^2).
  mem::BufferPool batch_buffers{64};
};

}  // namespace updsm::dsm
