//===- GraphPolicy.h - Partition, quarantine, journal policy ----*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy layer of the dependency-graph engine (DESIGN.md "Engine
/// layering and handle-based storage"): dynamic graph partitioning
/// (Section 6.3) with per-partition pending sets, change tracking
/// (Section 4.4's markInconsistent), the quarantine fault set, the
/// transactional undo journal's bookkeeping primitives, and parallel-wave
/// partition ownership. It sits on GraphStore and knows nothing about the
/// evaluation loops above it; the transaction *drivers* (beginBatch /
/// commitBatch / rollbackBatch) live in DepGraph because committing runs
/// the evaluator.
///
/// All hot lookups here are dense and id-indexed: pending sets and wave
/// owners are vectors indexed by union-find root, the quarantine set is a
/// flat {NodeId, fault} vector, and journal entries carry NodeIds — no
/// pointer-keyed hash map survives on a propagation path.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_GRAPH_GRAPHPOLICY_H
#define ALPHONSE_GRAPH_GRAPHPOLICY_H

#include "graph/GraphStore.h"
#include "graph/InconsistentSet.h"
#include "graph/UndoLog.h"
#include "support/FaultInfo.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace alphonse {

/// Internal control-flow signal of the parallel scheduler: an execution on
/// a wave worker touched a partition owned by a sibling drain task. The
/// two partitions are united, ownership of the merged partition is handed
/// to exactly one task, and the abandoned execution is left inconsistent
/// so the surviving owner (or the post-wave serial mop-up) retries it.
/// Deliberately not a FaultInfo: a conflict is a scheduling event, never a
/// program fault, and must not quarantine anything.
struct RetryConflict {};

namespace detail {
/// The drain-task id of the calling thread (0 = not a wave worker).
uint32_t &currentDrainTask();
} // namespace detail

/// Policy layer: partitions, pending sets, quarantine, journal, ownership.
class GraphPolicy : public GraphStore {
public:
  explicit GraphPolicy(Statistics &Stats) : GraphStore(Stats) {}
  GraphPolicy(Statistics &Stats, GraphConfig Cfg) : GraphStore(Stats, Cfg) {}

  /// Number of nodes pending in inconsistent sets.
  size_t numPending() const { return TotalPending; }

  /// Adds \p N to its partition's inconsistent set (Section 4.4). Used for
  /// changed storage and for explicit invalidation. Inline: this is the
  /// change-notification fast path, run once per edge of every dirtied
  /// node's successor fan-out.
  void markInconsistent(DepNode &N) {
    StateGuard Guard(*this);
    // Quarantined nodes take no further part in propagation until reset.
    if (N.Quarantined)
      return;
    // A demand procedure that is already inconsistent has already notified
    // its dependents; queueing it again would be a no-op at processing
    // time.
    if (N.isProcedure() && N.Strategy == EvalStrategy::Demand &&
        !N.Consistent && !N.Executing)
      return;
    if (!Cfg.Partitioning) {
      if (GlobalSet.push(*this, N))
        ++TotalPending;
      return;
    }
    UnionFind::Id Root = Partitions.find(N.Partition);
    if (SetVec.size() <= Root)
      SetVec.resize(Root + 1);
    if (!SetVec[Root].push(*this, N))
      return;
    ++TotalPending;
    listDirty(Root);
  }

  /// True if the partition containing \p N has pending work (or, with
  /// partitioning disabled, if anything is pending).
  bool hasPendingFor(DepNode &N) {
    StateGuard Guard(*this);
    if (!Cfg.Partitioning)
      return TotalPending != 0;
    InconsistentSet *S = findSet(Partitions.find(N.Partition));
    return S && !S->empty();
  }

  /// True when the given nodes are currently in the same partition.
  bool samePartition(DepNode &A, DepNode &B);

  /// Length of the drain-root list: the partition roots with pending
  /// work, each listed once (test/stats introspection).
  size_t numDirtyRoots() const { return DirtyRoots.size(); }

  /// Bytes reserved by the partition bookkeeping: the union-find arrays,
  /// the pending-set vector, the drain-root list and the serial pins (the
  /// graph.policy_bytes gauge; the pending heaps themselves are not
  /// counted).
  size_t policyBytes() const {
    return Partitions.bytesReserved() +
           SetVec.capacity() * sizeof(InconsistentSet) +
           DirtyRoots.capacity() * sizeof(UnionFind::Id) +
           SerialTag.capacity() * sizeof(uint32_t);
  }

  //===--------------------------------------------------------------------===//
  // Transactional journal bookkeeping — see DESIGN.md "Transactions and
  // recovery". The batch drivers live in DepGraph (commit evaluates).
  //===--------------------------------------------------------------------===//

  /// True between beginBatch() and the matching commitBatch()/
  /// rollbackBatch(). Typed layers consult this to decide whether to
  /// journal their mutations.
  bool inBatch() const { return TxnActive; }

  /// Monotonic commit/rollback counter: advanced once per batch outcome
  /// (either way), never reused. External state keyed to an epoch is
  /// stale whenever the graph's epoch differs.
  uint64_t epoch() const { return Epoch; }

  /// The first fault that aborted the last commitBatch(), or nullptr if
  /// the last batch committed (or none ran).
  const FaultInfo *abortFault() const {
    return AbortFault ? &*AbortFault : nullptr;
  }

  /// Appends a typed-layer restore closure to the journal. Only valid
  /// inside a batch; no-op while a rollback is replaying (the replay must
  /// not journal its own restores).
  void logUndo(std::function<void()> Undo);

  /// Registers \p Action to run when the current batch commits, after the
  /// batch has closed; a rollback drops it. Only valid inside a batch.
  /// logUndo's counterpart for the typed layers: work that must wait for
  /// the batch's outcome, such as freeing storage the commit made
  /// unreachable.
  void onCommit(std::function<void()> Action);

  /// Journal size of the current batch (test/stats visibility).
  size_t undoLogSize() const { return Journal.size(); }

  //===--------------------------------------------------------------------===//
  // Failure model (quarantine, divergence, cycles) — see DESIGN.md
  //===--------------------------------------------------------------------===//

  /// Structured fault reports (one error per quarantine / aborted
  /// propagation, plus audit findings when Config::AuditAfterEvaluate).
  const DiagnosticEngine &diagnostics() const { return Diags; }
  DiagnosticEngine &diagnostics() { return Diags; }

  /// Number of nodes currently quarantined.
  size_t numQuarantined() const { return Quarantine.size(); }

  /// The captured fault of a quarantined node, or nullptr. The pointer is
  /// valid until the quarantine set next changes (dense-vector storage).
  const FaultInfo *fault(const DepNode &N) const;

  /// Every quarantined node with its fault (order unspecified; fault
  /// pointers valid until the quarantine set next changes).
  std::vector<std::pair<DepNode *, const FaultInfo *>> quarantined() const;

  /// Moves \p N to the quarantine set: it is pulled from its pending set,
  /// flagged inconsistent, and ignored by markInconsistent() until reset.
  /// Its dependents are queued so they discover the fault (and cascade)
  /// at their next recompute instead of silently serving stale values.
  /// No-op if already quarantined (the first fault wins).
  void quarantine(DepNode &N, FaultInfo FI);

  /// Returns a quarantined node to service: the fault is dropped and the
  /// node is left inconsistent (eager nodes re-queue) so its next
  /// call/pump recomputes it. \returns false if \p N was not quarantined.
  bool resetQuarantined(DepNode &N);

  /// Resets every quarantined node. \returns how many were reset.
  size_t resetAllQuarantined();

  //===--------------------------------------------------------------------===//
  // Parallel propagation — see DESIGN.md "Parallel propagation"
  //===--------------------------------------------------------------------===//

  /// Called by a typed-layer execution running on a wave worker before it
  /// relies on state reachable from \p Target: claims Target's partition
  /// for the calling drain task if unowned, returns if already owned by
  /// it, and otherwise unites Target's partition with \p Accessor's (when
  /// given) and throws RetryConflict — the execution is abandoned, left
  /// inconsistent, and retried by the partition's surviving owner or the
  /// post-wave serial mop-up. No-op on the main thread and outside waves.
  void ensureWorkerAccess(DepNode &Target, DepNode *Accessor);

  /// True if \p N's partition currently holds at least one serial pin —
  /// i.e. the parallel scheduler would drain it on the mutator thread.
  /// Diagnostic/test accessor.
  bool serialEvalRequired(DepNode &N);

protected:
  friend class DepNode;
  friend class PropagationScheduler;
  friend class GraphCheckpoint;
  friend class GraphRestorer;

  /// The pending set of root \p Root, or nullptr if none was ever grown.
  InconsistentSet *findSet(UnionFind::Id Root) {
    return Root < SetVec.size() ? &SetVec[Root] : nullptr;
  }

  /// Puts \p Root (a current root whose set just gained work) on the
  /// drain-root list unless it is already there.
  void listDirty(UnionFind::Id Root) {
    InconsistentSet &S = SetVec[Root];
    if (S.DirtyPos != InconsistentSet::NotListed)
      return;
    S.DirtyPos = static_cast<uint32_t>(DirtyRoots.size());
    DirtyRoots.push_back(Root);
  }

  /// Takes \p Root off the drain-root list (no-op if unlisted). O(1): the
  /// last entry moves into the vacated position.
  void unlistDirty(UnionFind::Id Root) {
    uint32_t Pos = SetVec[Root].DirtyPos;
    if (Pos == InconsistentSet::NotListed)
      return;
    UnionFind::Id Last = DirtyRoots.back();
    DirtyRoots[Pos] = Last;
    SetVec[Last].DirtyPos = Pos;
    DirtyRoots.pop_back();
    SetVec[Root].DirtyPos = InconsistentSet::NotListed;
  }

  /// Moves \p Root to the top of the drain-root list if it is listed.
  void raiseDirty(UnionFind::Id Root) {
    if (Root >= SetVec.size() ||
        SetVec[Root].DirtyPos == InconsistentSet::NotListed)
      return;
    unlistDirty(Root);
    listDirty(Root);
  }

  /// Pops the lowest-level node of \p Root's non-empty pending set; the
  /// root leaves the drain-root list when its set drains.
  DepNode &popPending(UnionFind::Id Root) {
    InconsistentSet &S = SetVec[Root];
    DepNode &N = S.pop(*this);
    --TotalPending;
    if (S.empty())
      unlistDirty(Root);
    return N;
  }

  /// Publishes policyBytes() as the graph.policy_bytes gauge.
  void publishPolicyBytes() { Stats.GraphPolicyBytes = policyBytes(); }

  /// Removes a queued node from whichever pending set holds it and fixes
  /// the TotalPending count (used by unregisterNode and quarantine).
  void eraseFromPendingSets(DepNode &N);

  /// Empties every pending set (rollback's final step: the pre-batch
  /// state was quiescent, so nothing may stay queued).
  void clearAllPending();

  /// Unites the partitions rooted at \p RootA and \p RootB (both must be
  /// current roots), merging orphaned pending sets and serial tags and —
  /// during a wave — reassigning ownership of the merged partition. When
  /// the merge joins a foreign in-flight drain task's partition from a
  /// worker thread, ownership goes to the foreign task and this throws
  /// RetryConflict. \returns the merged root.
  UnionFind::Id uniteRoots(UnionFind::Id RootA, UnionFind::Id RootB);

  /// Adds one serial pin to \p N's partition (DepNode::requireSerialEval).
  void tagSerialPartition(DepNode &N);

  /// Releases one serial pin from \p N's partition (the node is being
  /// unregistered, or its recompiled form no longer needs thread
  /// affinity). When the count reaches zero the partition reverts to
  /// parallel eligibility.
  void untagSerialPartition(DepNode &N);

  /// Queues every dependent of \p N (change notification, Section 4.4),
  /// skipping executing dependents that have not read \p N again yet
  /// (GraphStore::isUnconfirmed). Guarded: a sibling wave worker recording
  /// a new dependency on \p N pushes onto N's successor list concurrently
  /// with this walk.
  void enqueueSuccessors(DepNode &N) {
    StateGuard Guard(*this);
    for (EdgeId E = N.FirstSucc; E;) {
      const Edge &Ed = edge(E);
      EdgeId Next = Ed.NextSucc;
      if (!isUnconfirmed(E))
        markInconsistent(node(Ed.Sink));
      E = Next;
    }
  }

  /// True when mutations should be journaled: inside a batch, but not
  /// while rollback itself is replaying.
  bool journaling() const { return TxnActive && !TxnRollingBack; }

  /// Index of \p Id's quarantine entry, or npos.
  size_t findFault(NodeId Id) const;

  /// Wave ownership accessors (dense by root id; meaningful only while
  /// ParallelOn). All callers hold the state lock.
  uint32_t owner(UnionFind::Id Root) const {
    return Root < Owners.size() ? Owners[Root] : 0;
  }
  void setOwner(UnionFind::Id Root, uint32_t Task) {
    if (Owners.size() <= Root)
      Owners.resize(Root + 1, 0);
    Owners[Root] = Task;
  }
  void releaseOwner(UnionFind::Id Root) {
    if (Root < Owners.size())
      Owners[Root] = 0;
  }
  void clearOwners() { std::fill(Owners.begin(), Owners.end(), 0); }

  UnionFind Partitions;
  /// Pending sets indexed by union-find root id (dense; grown on demand).
  /// With partitioning disabled, GlobalSet is used instead.
  std::vector<InconsistentSet> SetVec;
  InconsistentSet GlobalSet;
  /// The drain-root list: every root whose pending set is non-empty,
  /// each exactly once (its InconsistentSet::DirtyPos indexes it here).
  /// Demand drains (evaluateFor) delist as they empty a set, so the list
  /// stays bounded by the partitions with pending work.
  std::vector<UnionFind::Id> DirtyRoots;
  size_t TotalPending = 0;

  /// Quarantined nodes and their captured faults (dense; quarantine sets
  /// are tiny, linear scans beat hashing).
  std::vector<std::pair<NodeId, FaultInfo>> Quarantine;

  /// Undo journal of the active batch (empty outside one).
  UndoLog Journal;
  /// onCommit() actions of the active batch (empty outside one).
  std::vector<std::function<void()>> CommitActions;
  /// A batch is open (beginBatch .. commit/rollback).
  bool TxnActive = false;
  /// rollbackBatch() is replaying; suppresses journaling and scrubbing.
  bool TxnRollingBack = false;
  /// Nodes quarantined since beginBatch(); any nonzero value aborts the
  /// commit.
  uint64_t TxnNewFaults = 0;
  /// First in-batch fault (the abort reason surfaced by abortFault()).
  std::optional<FaultInfo> AbortFault;
  /// Commit/rollback epoch (see epoch()).
  uint64_t Epoch = 1;

  /// Wave ownership indexed by union-find root: drain-task id (1..N), 0 =
  /// unowned. Meaningful only while ParallelOn; cleared between waves.
  std::vector<uint32_t> Owners;
  /// Serial-affinity pin counts indexed by union-find element id; a
  /// nonzero count on a root means the whole partition drains on the
  /// calling thread. Counted (not a sticky bit) so that destroying the
  /// last pinned node of a partition returns it to the parallel waves;
  /// merges sum the two roots' counts. Grown only when a nonzero count is
  /// stored, so it is sized by the highest pinned root, not by every node
  /// ever registered; a slot past the end reads as 0.
  std::vector<uint32_t> SerialTag;
};

} // namespace alphonse

#endif // ALPHONSE_GRAPH_GRAPHPOLICY_H
