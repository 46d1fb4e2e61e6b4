//===- GraphPolicy.cpp - Partition, quarantine, journal policy ------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements change tracking (Section 4.4), dynamic graph partitioning
/// (Section 6.3), the quarantine fault set, journal bookkeeping, and
/// parallel-wave partition ownership over the dense id-indexed structures
/// declared in GraphPolicy.h.
///
//===----------------------------------------------------------------------===//

#include "graph/GraphPolicy.h"

#include <cassert>

namespace alphonse {

namespace detail {
uint32_t &currentDrainTask() {
  static thread_local uint32_t Task = 0;
  return Task;
}
} // namespace detail

//===----------------------------------------------------------------------===//
// Pending sets and partitions
//===----------------------------------------------------------------------===//

bool GraphPolicy::samePartition(DepNode &A, DepNode &B) {
  StateGuard Guard(*this);
  return Partitions.find(A.Partition) == Partitions.find(B.Partition);
}

void GraphPolicy::eraseFromPendingSets(DepNode &N) {
  if (!N.InQueue)
    return;
  if (!Cfg.Partitioning) {
    GlobalSet.erase(*this, N);
  } else {
    // uniteRoots moves a merged-away root's entries to the surviving
    // root, so a queued node always sits in its current root's set.
    UnionFind::Id Root = Partitions.find(N.Partition);
    assert(Root < SetVec.size() && "queued node's partition has no set");
    SetVec[Root].erase(*this, N);
    if (SetVec[Root].empty())
      unlistDirty(Root);
  }
  assert(!N.InQueue && "queued node not found in its inconsistent set");
  --TotalPending;
}

void GraphPolicy::clearAllPending() {
  while (!GlobalSet.empty())
    GlobalSet.pop(*this);
  for (UnionFind::Id Root : DirtyRoots) {
    InconsistentSet &S = SetVec[Root];
    while (!S.empty())
      S.pop(*this);
    S.DirtyPos = InconsistentSet::NotListed;
  }
  TotalPending = 0;
  DirtyRoots.clear();
}

UnionFind::Id GraphPolicy::uniteRoots(UnionFind::Id RootA,
                                      UnionFind::Id RootB) {
  UnionFind::Id Root = Partitions.unite(RootA, RootB);
  ++Stats.PartitionUnions;

  // The merged partition carries the sum of both pin counts, so it stays
  // serial exactly as long as at least one pinned node survives in it.
  // Stale (non-root) slots are zeroed: only root slots are ever read, and
  // a later merge must not double-count a pin.
  uint32_t Pins = 0;
  if (RootA < SerialTag.size()) {
    Pins += SerialTag[RootA];
    SerialTag[RootA] = 0;
  }
  if (RootB < SerialTag.size()) {
    Pins += SerialTag[RootB];
    SerialTag[RootB] = 0;
  }
  if (Pins != 0 && Root >= SerialTag.size())
    SerialTag.resize(Root + 1, 0);
  if (Root < SerialTag.size())
    SerialTag[Root] = Pins;

  // The merged-away root is never a root again: its pending entries and
  // its place on the drain-root list pass to the survivor.
  UnionFind::Id Other = (Root == RootA) ? RootB : RootA;
  if (Other < SetVec.size() && !SetVec[Other].empty()) {
    unlistDirty(Other);
    InconsistentSet Orphan = std::move(SetVec[Other]);
    SetVec[Other] = InconsistentSet();
    if (SetVec.size() <= Root)
      SetVec.resize(Root + 1);
    SetVec[Root].mergeFrom(*this, Orphan);
    listDirty(Root);
  }

  // Wave ownership handoff: the merged partition must end up with exactly
  // one drain task. If the merge joins a sibling task's in-flight
  // partition, that sibling inherits the whole thing and the calling
  // execution abandons (RetryConflict); the abandoned node stays
  // inconsistent and is re-drained by the new owner or the post-wave
  // serial mop-up.
  uint32_t Me = detail::currentDrainTask();
  if (ParallelOn.load(std::memory_order_relaxed) && Me != 0) {
    uint32_t OwnA = owner(RootA);
    uint32_t OwnB = owner(RootB);
    releaseOwner(RootA);
    releaseOwner(RootB);
    uint32_t Foreign = 0;
    if (OwnA != 0 && OwnA != Me)
      Foreign = OwnA;
    if (OwnB != 0 && OwnB != Me)
      Foreign = OwnB;
    if (Foreign != 0) {
      setOwner(Root, Foreign);
      ++Stats.PropConflicts;
      throw RetryConflict{};
    }
    if (OwnA == Me || OwnB == Me)
      setOwner(Root, Me);
  }
  return Root;
}

void GraphPolicy::ensureWorkerAccess(DepNode &Target, DepNode *Accessor) {
  uint32_t Me = detail::currentDrainTask();
  if (Me == 0 || !ParallelOn.load(std::memory_order_acquire))
    return;
  StateGuard Guard(*this);
  UnionFind::Id Root = Partitions.find(Target.Partition);
  uint32_t Own = owner(Root);
  if (Own == 0) {
    setOwner(Root, Me); // Unowned (not scheduled this wave): claim it.
    return;
  }
  if (Own == Me)
    return;
  // Owned by a sibling task. With an accessor in hand the partitions are
  // united — contact between them is a dependency-to-be — and uniteRoots
  // hands ownership to the sibling and throws. Without one (no structural
  // link yet) just abandon; the mop-up will retry serially.
  if (Accessor) {
    UnionFind::Id MyRoot = Partitions.find(Accessor->Partition);
    if (MyRoot != Root) {
      uniteRoots(MyRoot, Root); // Throws RetryConflict (foreign owner).
      return;
    }
  }
  ++Stats.PropConflicts;
  throw RetryConflict{};
}

void GraphPolicy::tagSerialPartition(DepNode &N) {
  StateGuard Guard(*this);
  UnionFind::Id Root = Partitions.find(N.Partition);
  if (Root >= SerialTag.size())
    SerialTag.resize(Root + 1, 0);
  ++SerialTag[Root];
}

void GraphPolicy::untagSerialPartition(DepNode &N) {
  StateGuard Guard(*this);
  UnionFind::Id Root = Partitions.find(N.Partition);
  assert(Root < SerialTag.size() && SerialTag[Root] > 0 &&
         "un-pinning a partition with no serial pins");
  if (Root < SerialTag.size() && SerialTag[Root] > 0)
    --SerialTag[Root];
}

bool GraphPolicy::serialEvalRequired(DepNode &N) {
  StateGuard Guard(*this);
  UnionFind::Id Root = Partitions.find(N.Partition);
  return Root < SerialTag.size() && SerialTag[Root] != 0;
}

//===----------------------------------------------------------------------===//
// Journal bookkeeping
//===----------------------------------------------------------------------===//

void GraphPolicy::logUndo(std::function<void()> Undo) {
  assert(TxnActive && "logUndo() outside a batch");
  if (TxnRollingBack)
    return;
  UndoEntry U;
  U.K = UndoEntry::Kind::Action;
  U.Undo = std::move(Undo);
  Journal.push(std::move(U));
  ++Stats.TxnUndoEntries;
}

void GraphPolicy::onCommit(std::function<void()> Action) {
  assert(TxnActive && "onCommit() outside a batch");
  CommitActions.push_back(std::move(Action));
}

//===----------------------------------------------------------------------===//
// Failure model: quarantine (see DESIGN.md)
//===----------------------------------------------------------------------===//

size_t GraphPolicy::findFault(NodeId Id) const {
  for (size_t I = 0; I < Quarantine.size(); ++I)
    if (Quarantine[I].first == Id)
      return I;
  return SIZE_MAX;
}

const FaultInfo *GraphPolicy::fault(const DepNode &N) const {
  size_t I = findFault(N.Id);
  return I == SIZE_MAX ? nullptr : &Quarantine[I].second;
}

std::vector<std::pair<DepNode *, const FaultInfo *>>
GraphPolicy::quarantined() const {
  std::vector<std::pair<DepNode *, const FaultInfo *>> Out;
  Out.reserve(Quarantine.size());
  for (const auto &Entry : Quarantine)
    Out.emplace_back(&node(Entry.first), &Entry.second);
  return Out;
}

void GraphPolicy::quarantine(DepNode &N, FaultInfo FI) {
  StateGuard Guard(*this);
  if (N.Quarantined)
    return; // First fault wins.
  assert(&node(N.Id) == &N && "quarantining a node of another graph");
  if (TxnActive && !TxnRollingBack) {
    // A fault inside a batch poisons the whole batch: commitBatch() will
    // roll back instead of committing. Journal the quarantine so rollback
    // lifts it again (the pre-batch state had no such fault).
    ++TxnNewFaults;
    if (!AbortFault)
      AbortFault = FI;
    UndoEntry U;
    U.K = UndoEntry::Kind::Quarantined;
    U.Sink = N.Id;
    U.WasConsistent = N.Consistent;
    Journal.push(std::move(U));
    ++Stats.TxnUndoEntries;
  }
  eraseFromPendingSets(N);
  N.Quarantined = true;
  N.Consistent = false;
  ++Stats.NodesQuarantined;
  Diags.error(SourceLocation(),
              "quarantined node '" +
                  (FI.NodeName.empty() ? std::string("<anon>") : FI.NodeName) +
                  "' [" + faultKindName(FI.Kind) + "]: " + FI.Message);
  // Dependents hold values computed from this node; queue them so they
  // discover the fault at their next recompute instead of silently
  // serving stale data (a recompute that calls a quarantined node throws
  // QuarantinedError and cascades).
  enqueueSuccessors(N);
  Quarantine.emplace_back(N.Id, std::move(FI));
}

bool GraphPolicy::resetQuarantined(DepNode &N) {
  size_t I = findFault(N.Id);
  if (I == SIZE_MAX)
    return false;
  if (journaling()) {
    UndoEntry U;
    U.K = UndoEntry::Kind::QuarantineCleared;
    U.Sink = N.Id;
    U.Saved = Quarantine[I].second;
    Journal.push(std::move(U));
    ++Stats.TxnUndoEntries;
  }
  Quarantine[I] = std::move(Quarantine.back());
  Quarantine.pop_back();
  N.Quarantined = false;
  N.ReexecCount = 0;
  N.ReexecEpoch = 0;
  ++Stats.QuarantineResets;
  // Leave the node inconsistent; storage and eager nodes re-queue so the
  // next pump refreshes them, demand nodes recompute at their next call.
  if (N.isStorage() || N.Strategy == EvalStrategy::Eager)
    markInconsistent(N);
  return true;
}

size_t GraphPolicy::resetAllQuarantined() {
  size_t Count = 0;
  while (!Quarantine.empty()) {
    resetQuarantined(node(Quarantine.back().first));
    ++Count;
  }
  return Count;
}

} // namespace alphonse
