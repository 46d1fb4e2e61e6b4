//===- avl_churn.cpp - AVL tree churn through the C++ embedding ----------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Paper §7.3 / Algorithm 11 through trees::AvlTree. Set-up inserts 2^15
// seeded keys into an empty tree (a plain unbalanced BST) and makes the
// first demand, one rebalance() of the whole tree. Each update then erases
// one live key, inserts one absent key, rebalances, and asks a maintained
// lookup() of a key from a fixed hot set of 1024 probes, so the lookup
// argument table stops growing once warm-up has touched every probe.
//
// A std::set mirror is the oracle: every lookup answer must equal mirror
// membership, and at sampled points and at the end the tree must hold the
// mirror's size, be a BST, be AVL-balanced and have an AVL height.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "core/Alphonse.h"
#include "trees/AvlTree.h"

#include <cmath>
#include <memory>
#include <set>
#include <string>

using alphonse::Runtime;
using alphonse::Statistics;
using alphonse::trees::AvlTree;

namespace perfbench {
namespace {

constexpr int kLiveKeys = 1 << 15;
constexpr int kUniverse = 4 * kLiveKeys;
constexpr int kHotProbes = 1024;
constexpr int kRoundUpdates = 256;
constexpr int kWarmupRounds = 4;
constexpr double kNominalUpdatesPerSecond = 6000;
/// Deep checks (O(n) walks) run after every this many timed rounds.
constexpr int kCheckEveryRounds = 16;

struct Instance {
  // Declared before the tree: the runtime must outlive every cell.
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<AvlTree> Tree;
};

/// Keys are spread over the int range so that they are not dense.
int keyOf(uint64_t I) { return static_cast<int>(I * 7 + 3); }

struct Counts {
  uint64_t Execs, EdgesCreated, EdgesRemoved, EdgesDeduped, Cutoffs;
  static Counts of(const Statistics &S) {
    return {S.ProcExecutions, S.EdgesCreated, S.EdgesRemoved, S.EdgesDeduped,
            S.QuiescenceCutoffs};
  }
};

/// AVL height bounds for N nodes: ceil(log2(N+1)) <= h <= 1.4405 log2(N+2).
bool heightInAvlBounds(int H, size_t N) {
  double Lo = std::ceil(std::log2(static_cast<double>(N) + 1));
  double Hi = 1.4405 * std::log2(static_cast<double>(N) + 2) - 0.3277;
  return H >= Lo && H <= Hi;
}

} // namespace

Result runAvlChurn(const Options &O, Tracer &T) {
  Result R;
  R.SpanLayer = {{"trees.erase", "write"},
                 {"trees.insert", "write"},
                 {"graph.rebalance", "propagate"},
                 {"trees.lookup", "read"}};
  R.SpanChildren = {{"update",
                     {{"trees.erase", {1, 1}},
                      {"trees.insert", {1, 1}},
                      {"graph.rebalance", {1, 1}},
                      {"trees.lookup", {1, 1}}}}};
  Rng G(O.Seed);

  // Inputs: the initial key set in insertion order, the hot probes.
  std::vector<int> Live, Absent;
  {
    std::vector<int> All(kUniverse);
    for (int I = 0; I < kUniverse; ++I)
      All[I] = keyOf(I);
    for (int I = kUniverse - 1; I > 0; --I)
      std::swap(All[I], All[G.below(I + 1)]);
    Live.assign(All.begin(), All.begin() + kLiveKeys);
    Absent.assign(All.begin() + kLiveKeys, All.end());
  }
  std::vector<int> Hot(kHotProbes);
  for (int &K : Hot)
    K = keyOf(G.below(kUniverse));
  std::set<int> Mirror(Live.begin(), Live.end());

  // Set-up, repeated; the last instance is the one measured.
  std::map<std::string, std::vector<double>> SetupSamples;
  std::vector<double> SetupTotal;
  Instance I;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    I.Tree.reset();
    I.RT.reset();
    uint64_t T0 = nowNs();
    I.RT = std::make_unique<Runtime>();
    I.Tree = std::make_unique<AvlTree>(*I.RT);
    for (int K : Live)
      I.Tree->insert(K);
    uint64_t T1 = nowNs();
    I.Tree->rebalance();
    uint64_t T2 = nowNs();
    SetupSamples["setup.build_s"].push_back((T1 - T0) * 1e-9);
    SetupSamples["setup.first_answer_s"].push_back((T2 - T1) * 1e-9);
    SetupTotal.push_back((T2 - T0) * 1e-9);
  }
  setMedians(R, SetupSamples);
  AvlTree &Tree = *I.Tree;
  Runtime &RT = *I.RT;

  auto DeepCheck = [&](const char *Where) {
    std::string W = Where;
    if (Tree.reachableSize() != Mirror.size())
      R.fail(W + ": reachable size differs from the mirror");
    int H = Tree.height(); // Rebalances first.
    if (!Tree.isBst())
      R.fail(W + ": BST order broken");
    if (!Tree.isAvlBalanced())
      R.fail(W + ": not AVL-balanced");
    if (!heightInAvlBounds(H, Mirror.size()))
      R.fail(W + ": height " + std::to_string(H) + " outside AVL bounds");
    ++R.Attempted;
  };
  DeepCheck("after set-up");

  std::vector<uint64_t> LatNs;
  uint64_t BusyNs = 0;
  uint64_t Updates = 0;
  auto Update = [&](bool Timed) {
    size_t EI = G.below(Live.size());
    size_t II = G.below(Absent.size());
    int EraseKey = Live[EI], InsertKey = Absent[II];
    int Probe = Hot[G.below(kHotProbes)];
    T.setUpdate(static_cast<uint32_t>(Updates));
    uint64_t T0 = nowNs();
    bool Erased, Found;
    {
      SpanScope U(T, "update");
      {
        SpanScope S(T, "trees.erase");
        Erased = Tree.erase(EraseKey);
      }
      {
        SpanScope S(T, "trees.insert");
        Tree.insert(InsertKey);
      }
      {
        SpanScope S(T, "graph.rebalance");
        Tree.rebalance();
      }
      {
        SpanScope S(T, "trees.lookup");
        Found = Tree.lookup(Probe);
      }
    }
    uint64_t Lat = nowNs() - T0;
    if (Timed) {
      LatNs.push_back(Lat);
      BusyNs += Lat;
      ++Updates;
    }
    ++R.Attempted;
    Live[EI] = InsertKey;
    Absent[II] = EraseKey;
    Mirror.erase(EraseKey);
    Mirror.insert(InsertKey);
    if (!Erased)
      R.fail("erase of a live key reported it absent");
    else if (Found != (Mirror.count(Probe) != 0))
      R.fail("lookup answer differs from the mirror");
  };

  // Warm-up: rounds of updates, then every hot probe once, so the lookup
  // argument table is full before timing starts.
  for (int Round = 0; Round < kWarmupRounds; ++Round)
    for (int U = 0; U < kRoundUpdates; ++U)
      Update(false);
  for (int K : Hot)
    if (Tree.lookup(K) != (Mirror.count(K) != 0))
      R.fail("warm-up lookup differs from the mirror");
  DeepCheck("after warm-up");

  // Timed phase. The first round is the count window.
  T.enable(O.Trace);
  const int Rounds = timedRounds(O, kNominalUpdatesPerSecond, kRoundUpdates);
  uint64_t CpuNs = 0;
  Counts Before = Counts::of(RT.stats());
  for (int Round = 1; Round <= Rounds; ++Round) {
    uint64_t Cpu0 = processCpuNs();
    for (int U = 0; U < kRoundUpdates; ++U)
      Update(true);
    CpuNs += processCpuNs() - Cpu0;
    if (Round == 1) {
      Counts After = Counts::of(RT.stats());
      double N = kRoundUpdates;
      R.set("graph.execs_per_update", (After.Execs - Before.Execs) / N,
            "count");
      R.set("graph.edges_created_per_update",
            (After.EdgesCreated - Before.EdgesCreated) / N, "count");
      R.set("graph.edges_removed_per_update",
            (After.EdgesRemoved - Before.EdgesRemoved) / N, "count");
      R.set("graph.edges_deduped_per_update",
            (After.EdgesDeduped - Before.EdgesDeduped) / N, "count");
      R.set("graph.cutoffs_per_update", (After.Cutoffs - Before.Cutoffs) / N,
            "count");
      R.set("graph.bytes",
            static_cast<double>(RT.stats().GraphNodeBytes +
                                RT.stats().GraphEdgeBytes),
            "bytes");
    }
    if (Round % kCheckEveryRounds == 0) {
      bool Was = T.enabled();
      T.enable(false);
      DeepCheck("sampled");
      T.enable(Was);
    }
  }
  T.enable(false);
  R.TracedUpdates = O.Trace ? Updates : 0;
  DeepCheck("at the end");
  for (int K : Hot)
    if (Tree.lookup(K) != (Mirror.count(K) != 0))
      R.fail("final lookup differs from the mirror");
  if (RT.stats().NodesQuarantined != 0)
    R.refuse("nodes were quarantined");

  R.set("timed_rounds", Rounds, "count");
  R.setEndToEnd(median(SetupTotal), Updates, BusyNs * 1e-9, CpuNs * 1e-9,
                std::move(LatNs), kRoundUpdates);
  return R;
}

} // namespace perfbench
