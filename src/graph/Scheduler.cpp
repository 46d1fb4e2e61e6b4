//===- Scheduler.cpp - Parallel quiescence propagation --------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "graph/Scheduler.h"

#include "graph/DepGraph.h"

#include <algorithm>

namespace alphonse {

PropagationScheduler::PropagationScheduler(DepGraph &G, unsigned Workers,
                                           ThreadPool *Shared)
    : G(G), Pool(Shared) {
  if (!Pool) {
    Owned = std::make_unique<ThreadPool>(Workers);
    Pool = Owned.get();
  }
}

void PropagationScheduler::run() {
  ++G.EvalDepth;
  G.EvalSteps = 0;
  ++G.EvalEpoch;
  G.DrainAborted = false;
  G.Stats.PropWorkers = Pool->size();

  uint64_t BackoffRound = 0;
  try {
    while (G.TotalPending != 0 &&
           !G.DrainAborted.load(std::memory_order_relaxed)) {
      // Budget boundary: a cancelled wave parks the remaining pending
      // work (resumable by any later pump) instead of starting another
      // round of drains.
      if (G.governorStop())
        break;
      const uint64_t ConflictsBefore = G.Stats.PropConflicts.total();
      // Snapshot the current roots with pending work by scanning the
      // dense set vector. find() is safe unlocked here: no wave is in
      // flight, so this thread is the only one touching the union-find.
      std::vector<UnionFind::Id> Par;
      bool SerialWork = false;
      for (UnionFind::Id Slot = 0; Slot < G.SetVec.size(); ++Slot) {
        if (G.SetVec[Slot].empty())
          continue;
        UnionFind::Id Root = G.Partitions.find(Slot);
        if (Root < G.SerialTag.size() && G.SerialTag[Root])
          SerialWork = true;
        else
          Par.push_back(Root);
      }
      std::sort(Par.begin(), Par.end());
      Par.erase(std::unique(Par.begin(), Par.end()), Par.end());

      bool RanParallel = false;
      if (Par.size() >= 2) {
        // Assign each partition to one drain task, then open the wave.
        // ParallelOn flips last (release): workers start with ownership
        // fully published.
        {
          std::lock_guard<std::recursive_mutex> L(G.StateMu);
          G.clearOwners();
          for (size_t I = 0; I < Par.size(); ++I)
            G.setOwner(Par[I], static_cast<uint32_t>(I + 1));
        }
        G.ParallelOn.store(true, std::memory_order_release);
        for (size_t I = 0; I < Par.size(); ++I) {
          UnionFind::Id Root = Par[I];
          uint32_t Me = static_cast<uint32_t>(I + 1);
          Pool->run([this, Root, Me] { drainRoot(Root, Me); });
        }
        try {
          Pool->wait();
        } catch (...) {
          G.ParallelOn.store(false, std::memory_order_release);
          G.clearOwners();
          throw;
        }
        G.ParallelOn.store(false, std::memory_order_release);
        G.clearOwners();
        RanParallel = true;
      }

      // Serial turn: serial-affine partitions, a lone pending partition,
      // and leftovers abandoned by wave conflicts all drain on this
      // thread, in the classic order. This is also the quiescence
      // guarantee — whatever the waves left behind, evaluateAllSerial
      // finishes it.
      if (SerialWork || !RanParallel)
        G.evaluateAllSerial();
      // When a wave ran and only conflict leftovers remain, loop: the
      // next wave (or, once partitions collapse below two, the serial
      // branch) picks them up. Conflicts strictly merge partitions, so
      // the wave count is bounded by the initial partition count.
      //
      // A conflicted wave retries under capped exponential backoff with
      // deterministic jitter: merges mean the partition structure is
      // churning, and immediately re-dispatching tends to re-collide on
      // the same boundary edges. The wait is capped by the remaining
      // wave deadline (Governor::backoffWait) and advances the virtual
      // clock instead of sleeping under GovClock::VirtualScope.
      if (G.Stats.PropConflicts.total() == ConflictsBefore) {
        BackoffRound = 0;
      } else if (RanParallel && G.TotalPending != 0 &&
                 !G.DrainAborted.load(std::memory_order_relaxed) &&
                 !G.Gov.cancelled() && G.Cfg.RetryBackoffBaseUs != 0) {
        ++BackoffRound;
        uint64_t Delay = G.Cfg.RetryBackoffBaseUs;
        for (uint64_t R = 1; R < BackoffRound && Delay < G.Cfg.RetryBackoffCapUs;
             ++R)
          Delay *= 2;
        if (Delay > G.Cfg.RetryBackoffCapUs)
          Delay = G.Cfg.RetryBackoffCapUs;
        JitterSeed =
            JitterSeed * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t Jitter = (JitterSeed >> 33) % (Delay / 2 + 1);
        G.Gov.backoffWait(Delay + Jitter);
      }
    }
  } catch (...) {
    --G.EvalDepth;
    throw;
  }

  --G.EvalDepth;
  if (G.EvalDepth == 0 && G.Cfg.AuditAfterEvaluate)
    for (const std::string &V : G.verify())
      G.Diags.error(SourceLocation(), "audit: " + V);
}

void PropagationScheduler::drainRoot(UnionFind::Id Anchor, uint32_t Me) {
  detail::currentDrainTask() = Me;
  for (;;) {
    DepNode *U = nullptr;
    {
      std::lock_guard<std::recursive_mutex> L(G.StateMu);
      if (G.DrainAborted.load(std::memory_order_relaxed))
        break;
      // Cooperative cancellation: poll the governor at every evaluation
      // boundary. A cancelled worker abandons its partition between
      // nodes — never mid-evaluation — so no torn state is possible; the
      // partition's remaining work stays parked in its inconsistent set.
      if (G.governorStop())
        break;
      UnionFind::Id Root = G.Partitions.find(Anchor);
      if (G.owner(Root) != Me)
        break; // Merged away: the surviving owner drains the rest.
      InconsistentSet *S = G.findSet(Root);
      if (!S || S->empty()) {
        // Quiescent. Release ownership so a sibling that later merges
        // with this partition can claim it without a conflict.
        G.releaseOwner(Root);
        ++G.Stats.PropPartitionsDrained;
        break;
      }
      U = &G.popPending(Root);
    }
    try {
      G.processNode(*U);
    } catch (const RetryConflict &) {
      // This task's partition merged into a sibling's; the abandoned
      // node is already re-queued and owned elsewhere.
      break;
    }
  }
  detail::currentDrainTask() = 0;
}

} // namespace alphonse
