//===- TransactionStressTest.cpp - Randomized batch/rollback stress -------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized stress test for transactional batches: random interleavings
/// of tree mutations, mid-batch demands, injected faults, rollbacks and
/// commits on a HeightTree, checked against the hand-maintained
/// ManualHeightTree oracle after every quiescent point. Only committed
/// batches are mirrored into the oracle; rolled-back batches must leave
/// the incremental tree indistinguishable from never having run.
///
/// The seed is fixed: a failure reproduces deterministically.
///
//===----------------------------------------------------------------------===//

#include "core/Alphonse.h"
#include "graph/DepGraph.h"
#include "support/FaultInjector.h"
#include "trees/HeightTree.h"
#include "trees/ManualHeightTree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace alphonse {
namespace {

using trees::HeightTree;
using trees::ManualHeightTree;

/// One edit: parent index, which child slot, new child index (-1 = nil).
struct Edit {
  int Parent;
  bool LeftSlot;
  int Child;
};

/// The forest's shape as the test tracks it: per node, the child indices
/// (-1 = nil) and whether the node currently has a parent. Acyclicity is
/// guaranteed structurally — a node only ever links to higher-index
/// children — and each node has at most one parent.
struct Shape {
  std::vector<int> L, R;
  std::vector<char> HasParent;

  explicit Shape(int N) : L(N, -1), R(N, -1), HasParent(N, 0) {}

  int &slot(const Edit &E) { return E.LeftSlot ? L[E.Parent] : R[E.Parent]; }

  void apply(const Edit &E) {
    int &S = slot(E);
    if (S >= 0)
      HasParent[S] = 0;
    S = E.Child;
    if (E.Child >= 0)
      HasParent[E.Child] = 1;
  }
};

class Fixture {
public:
  static constexpr int NumNodes = 24;

  Fixture() : Tree(RT), Current(NumNodes) {
    for (int I = 0; I < NumNodes; ++I) {
      Inc.push_back(Tree.makeNode());
      Man.push_back(Manual.makeNode());
    }
  }

  /// Picks a random legal edit: parent P, slot, and a child with a higher
  /// index that is not already linked elsewhere — or a clear (-1).
  Edit randomEdit(std::mt19937 &Rng) {
    std::uniform_int_distribution<int> PickParent(0, NumNodes - 2);
    Edit E;
    E.Parent = PickParent(Rng);
    E.LeftSlot = (Rng() & 1) != 0;
    std::vector<int> Candidates{-1}; // Clearing the slot is always legal.
    for (int C = E.Parent + 1; C < NumNodes; ++C)
      if (!Current.HasParent[C])
        Candidates.push_back(C);
    int Occupant = E.LeftSlot ? Current.L[E.Parent] : Current.R[E.Parent];
    if (Occupant >= 0)
      Candidates.push_back(Occupant); // Re-linking in place: a no-op write.
    E.Child = Candidates[Rng() % Candidates.size()];
    return E;
  }

  void applyIncremental(const Edit &E) {
    HeightTree::Node *Child = E.Child < 0 ? Tree.nil() : Inc[E.Child];
    if (E.LeftSlot)
      Tree.setLeft(Inc[E.Parent], Child);
    else
      Tree.setRight(Inc[E.Parent], Child);
  }

  void applyManual(const Edit &E) {
    ManualHeightTree::Node *Child = E.Child < 0 ? nullptr : Man[E.Child];
    if (E.LeftSlot)
      Manual.setLeft(Man[E.Parent], Child);
    else
      Manual.setRight(Man[E.Parent], Child);
  }

  /// Full oracle comparison at a quiescent point: every node's maintained
  /// height equals both the hand-maintained field and the exhaustive
  /// recursion, and the graph audits clean.
  void checkAll() {
    for (int I = 0; I < NumNodes; ++I) {
      int Incremental = Tree.height(Inc[I]);
      ASSERT_EQ(Incremental, ManualHeightTree::height(Man[I]))
          << "node " << I << " disagrees with the manual oracle";
      ASSERT_EQ(Incremental,
                HeightTree::exhaustiveHeight(Inc[I], Tree.nil()))
          << "node " << I << " disagrees with the exhaustive recursion";
    }
    std::vector<std::string> Audit = RT.graph().verify();
    ASSERT_TRUE(Audit.empty()) << Audit.front();
    ASSERT_EQ(RT.graph().numQuarantined(), 0u);
  }

  Runtime RT;
  HeightTree Tree;
  ManualHeightTree Manual;
  std::vector<HeightTree::Node *> Inc;
  std::vector<ManualHeightTree::Node *> Man;
  Shape Current;
};

TEST(TransactionStressTest, RandomBatchesAgainstManualOracle) {
  Fixture F;
  std::mt19937 Rng(0xA1F0A15E); // Fixed seed: deterministic replay.

  FaultInjector Inj;
  FaultInjector::Scope Active(Inj);

  constexpr int NumBatches = 120;
  int Committed = 0, RolledBack = 0, Faulted = 0;

  for (int Batch = 0; Batch < NumBatches; ++Batch) {
    uint64_t Epoch0 = F.RT.epoch();
    Shape Before = F.Current; // Snapshot for rollback restoration.
    std::vector<Edit> Edits;

    // A quarter of the batches get a fault armed somewhere in the height
    // recomputes their demands will trigger.
    bool Armed = (Rng() % 4) == 0;
    if (Armed)
      Inj.armThrow("Tree.height", /*AtNthHit=*/1 + Rng() % 4);

    bool Doomed = false;
    {
      Transaction Txn(F.RT);
      int NumEdits = 1 + static_cast<int>(Rng() % 5);
      for (int I = 0; I < NumEdits; ++I) {
        Edit E = F.randomEdit(Rng);
        F.applyIncremental(E);
        F.Current.apply(E);
        Edits.push_back(E);
      }
      // Demand a few random heights inside the batch; with a fault armed
      // these may quarantine nodes, poisoning the batch.
      int NumDemands = static_cast<int>(Rng() % 4);
      for (int I = 0; I < NumDemands; ++I) {
        try {
          F.Tree.height(F.Inc[Rng() % Fixture::NumNodes]);
        } catch (const IncrementalFault &) {
          Doomed = true;
        } catch (const InjectedFault &) {
          Doomed = true;
        }
      }

      bool WantCommit = (Rng() % 3) != 0; // 2/3 commit, 1/3 rollback.
      if (!WantCommit) {
        Txn.rollback();
        Doomed = true; // Same restoration path as a fault.
        ++RolledBack;
      } else if (Doomed) {
        ASSERT_FALSE(Txn.commit()); // A poisoned batch must not commit.
        ++Faulted;
      } else {
        ASSERT_TRUE(Txn.commit());
        ++Committed;
      }
    }
    if (Armed)
      Inj.disarm("Tree.height");

    ASSERT_EQ(F.RT.epoch(), Epoch0 + 1); // Every outcome advances the epoch.
    if (Doomed) {
      F.Current = Before; // The incremental tree rolled back; so do we.
    } else {
      for (const Edit &E : Edits)
        F.applyManual(E); // Mirror only committed batches into the oracle.
    }
    F.checkAll();
  }

  // The schedule must actually exercise all three outcomes.
  EXPECT_GT(Committed, 10);
  EXPECT_GT(RolledBack, 10);
  EXPECT_GT(Faulted, 0);
  EXPECT_EQ(F.RT.stats().TxnBegun,
            static_cast<uint64_t>(NumBatches));
  EXPECT_EQ(F.RT.stats().TxnCommitted, static_cast<uint64_t>(Committed));
}

struct StubStorage final : DepNode {
  explicit StubStorage(DepGraph &G) : DepNode(G, NodeKind::Storage) {}
  bool refreshStorage() override { return true; }
};

struct StubProc final : DepNode {
  explicit StubProc(DepGraph &G) : DepNode(G, NodeKind::Procedure) {}
};

/// \p P's predecessor sources as a sorted multiset of handle bits.
std::vector<uint32_t> predMultiset(const DepNode &P) {
  std::vector<uint32_t> Out;
  P.forEachPredecessor([&](const DepNode &S) { Out.push_back(S.id().bits()); });
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(TransactionStressTest, RollbackAfterPartialEdgeMatchRestoresPredecessors) {
  // Re-executions inside a batch keep the old edges they read again, link
  // new ones at the cursor, and retract the rest; rollback must restore
  // every predecessor list exactly, duplicates included.
  Statistics Stats;
  DepGraph G(Stats);
  std::vector<std::unique_ptr<StubStorage>> Sources;
  for (int I = 0; I < 5; ++I)
    Sources.push_back(std::make_unique<StubStorage>(G));
  StubProc P(G), Q(G);
  std::mt19937 Rng(0xC0FFEE); // Fixed seed: deterministic replay.

  // One execution of P with random reads. Q's reads in between defeat P's
  // edge dedup, so P's list can hold one source more than once.
  uint64_t Reads = 0;
  auto ExecuteP = [&] {
    G.beginExecution(P);
    int N = static_cast<int>(Rng() % 7);
    for (int I = 0; I < N; ++I) {
      DepNode &S = *Sources[Rng() % Sources.size()];
      if (Rng() % 4 == 0) {
        G.beginExecution(Q);
        G.addDependency(Q, S);
        G.endExecution(Q);
        ++Reads;
      }
      G.addDependency(P, S);
      ++Reads;
    }
    G.endExecution(P);
  };

  int PartialMatches = 0;
  for (int Trial = 0; Trial < 300; ++Trial) {
    ExecuteP();
    std::vector<uint32_t> BeforeP = predMultiset(P);
    std::vector<uint32_t> BeforeQ = predMultiset(Q);
    // Every read is deduplicated, keeps an old edge, or creates one.
    const uint64_t Created = Stats.EdgesCreated.total();
    const uint64_t Deduped = Stats.EdgesDeduped.total();
    const uint64_t Retracted = Stats.EdgesRemoved.total();
    Reads = 0;
    G.beginBatch();
    int Runs = 1 + static_cast<int>(Rng() % 3);
    for (int I = 0; I < Runs; ++I)
      ExecuteP();
    const uint64_t Kept = Reads - (Stats.EdgesCreated.total() - Created) -
                          (Stats.EdgesDeduped.total() - Deduped);
    PartialMatches += Kept != 0 && Stats.EdgesRemoved.total() != Retracted;
    G.rollbackBatch();
    ASSERT_EQ(predMultiset(P), BeforeP) << "trial " << Trial;
    ASSERT_EQ(predMultiset(Q), BeforeQ) << "trial " << Trial;
    std::vector<std::string> Bad = G.verify();
    ASSERT_TRUE(Bad.empty()) << Bad.front();
  }
  // The schedule does mix kept and retracted edges in one batch.
  EXPECT_GT(PartialMatches, 50);
}

} // namespace
} // namespace alphonse
