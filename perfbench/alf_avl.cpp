//===- alf_avl.cpp - AVL trees as an Alphonse-L program -------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// perfbench/alf_avl.alf through the whole language pipeline: parse, Sema,
// the Alphonse transformation and the interpreter at its default
// configuration. Set-up inserts 2^14 seeded keys and makes the first
// demand (Rebalance, then Contains). Each update runs Erase of a live key,
// Insert of an absent one, Rebalance, Contains of a hot probe and the
// nullary cached Live(). Between set-up and warm-up the set-up state is
// saved to a checkpoint and restored into fresh interpreters.
//
// Checks: every answer against a std::set mirror; at sampled points and
// at the end, a walk of the heap through Interp::field for BST order, AVL
// balance and the mirror's key set; a conventional-mode interpreter that
// replays set-up and the first warm-up updates and must give the same
// answers and root height (Theorem 5.1); and the restored interpreter,
// which must answer every warm-up update exactly as the original does.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "interp/Interp.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/Diagnostics.h"
#include "transform/Transform.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

using alphonse::DiagnosticEngine;
using alphonse::Runtime;
using alphonse::Statistics;
using alphonse::interp::ExecMode;
using alphonse::interp::Interp;
using alphonse::interp::Value;
namespace lang = alphonse::lang;

namespace perfbench {
namespace {

constexpr int kLiveKeys = 1 << 14;
constexpr int kUniverse = 4 * kLiveKeys;
constexpr int kHotProbes = 1024;
constexpr int kRoundUpdates = 128;
constexpr int kWarmupRounds = 2;
/// Warm-up updates the conventional interpreter replays.
constexpr int kReplayUpdates = 4;
/// Restores of the set-up checkpoint per run; restore_s is their median.
constexpr int kRestoreReps = 3;
/// Seed of the set-up key set, which does not follow --seed.
constexpr uint64_t kSetupSeed = 1;
constexpr int kCheckEveryRounds = 16;
constexpr double kNominalUpdatesPerSecond = 4500;

int keyOf(uint64_t I) { return static_cast<int>(I * 7 + 3); }

Value IV(long V) { return Value::integer(V); }

/// A parsed, checked and transformed module; it must outlive every
/// interpreter built over it.
struct Program {
  std::unique_ptr<lang::Module> M;
  std::unique_ptr<lang::SemaInfo> Info;
};

struct Op {
  int EraseKey, InsertKey, Probe;
};

/// What one update answered.
struct Answers {
  bool Erased, Found;
  long Live;
  bool operator==(const Answers &O) const {
    return Erased == O.Erased && Found == O.Found && Live == O.Live;
  }
};

Answers apply(Interp &I, const Op &P, Tracer &T) {
  Answers A;
  SpanScope U(T, "update");
  {
    SpanScope S(T, "interp.erase");
    A.Erased = I.call("Erase", {IV(P.EraseKey)}).Bool;
  }
  {
    SpanScope S(T, "interp.insert");
    I.call("Insert", {IV(P.InsertKey)});
  }
  {
    SpanScope S(T, "interp.rebalance");
    I.call("Rebalance");
  }
  {
    SpanScope S(T, "interp.contains");
    A.Found = I.call("Contains", {IV(P.Probe)}).Bool;
  }
  {
    SpanScope S(T, "interp.cached_call");
    A.Live = I.call("Live").Int;
  }
  return A;
}

/// Walks the heap from root: BST order, AVL balance, and the key set.
/// \returns "" when all hold.
std::string checkHeap(Interp &I, const std::set<int> &Mirror) {
  Value Nil = I.global("nil");
  std::vector<long> Keys;
  bool Ok = true;
  // Post-order by explicit recursion on a small lambda: depth is the
  // tree height, which the AVL bound keeps small.
  auto Walk = [&](auto &Self, const Value &N, const long *Lo,
                  const long *Hi) -> int {
    if (N == Nil || N.isNil())
      return 0;
    long K = I.field(N, "key").Int;
    if ((Lo && K <= *Lo) || (Hi && K >= *Hi))
      Ok = false;
    int HL = Self(Self, I.field(N, "left"), Lo, &K);
    Keys.push_back(K);
    int HR = Self(Self, I.field(N, "right"), &K, Hi);
    if (HL - HR > 1 || HR - HL > 1)
      Ok = false;
    return std::max(HL, HR) + 1;
  };
  Walk(Walk, I.global("root"), nullptr, nullptr);
  if (!Ok)
    return "heap walk: BST order or AVL balance broken";
  if (Keys.size() != Mirror.size() ||
      !std::equal(Keys.begin(), Keys.end(), Mirror.begin()))
    return "heap walk: key set differs from the mirror";
  return "";
}

} // namespace

Result runAlfAvl(const Options &O, Tracer &T) {
  Result R;
  R.SpanLayer = {{"interp.erase", "write"},
                 {"interp.insert", "write"},
                 {"interp.rebalance", "propagate"},
                 {"interp.contains", "read"},
                 {"interp.cached_call", "read"}};
  R.SpanChildren = {{"update",
                     {{"interp.erase", {1, 1}},
                      {"interp.insert", {1, 1}},
                      {"interp.rebalance", {1, 1}},
                      {"interp.contains", {1, 1}},
                      {"interp.cached_call", {1, 1}}}}};
  std::ifstream In(O.AlfPath);
  if (!In) {
    R.Errors.push_back("cannot read " + O.AlfPath);
    return R;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::string Source = Buf.str();

  // The set-up keys and their order are the same at every seed, so the
  // checkpoint round trip sees the same state in every run; the hot
  // probes and the update stream come from the seed.
  Rng G(O.Seed);
  std::vector<int> Live, Absent;
  {
    Rng SetupG(kSetupSeed);
    std::vector<int> All(kUniverse);
    for (int I = 0; I < kUniverse; ++I)
      All[I] = keyOf(I);
    for (int I = kUniverse - 1; I > 0; --I)
      std::swap(All[I], All[SetupG.below(I + 1)]);
    Live.assign(All.begin(), All.begin() + kLiveKeys);
    Absent.assign(All.begin() + kLiveKeys, All.end());
  }
  std::vector<int> Hot(kHotProbes);
  for (int &K : Hot)
    K = keyOf(G.below(kUniverse));
  std::set<int> Mirror(Live.begin(), Live.end());
  const int FirstProbe = Hot[0];

  // Set-up, repeated; the last program and interpreter are measured.
  std::map<std::string, std::vector<double>> SetupSamples;
  std::vector<double> SetupTotal;
  Program P;
  std::unique_ptr<Interp> I;
  bool FirstFound = false;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    I.reset();
    P = Program();
    DiagnosticEngine Diags;
    uint64_t T0 = nowNs();
    P.M = std::make_unique<lang::Module>(lang::parseModule(Source, Diags));
    uint64_t T1 = nowNs();
    P.Info = std::make_unique<lang::SemaInfo>(lang::analyze(*P.M, Diags));
    uint64_t T2 = nowNs();
    if (Diags.hasErrors()) {
      std::ostringstream D;
      Diags.print(D);
      R.Errors.push_back("alf_avl.alf does not compile: " + D.str());
      return R;
    }
    alphonse::transform::transform(*P.M, *P.Info);
    uint64_t T3 = nowNs();
    I = std::make_unique<Interp>(*P.M, *P.Info, ExecMode::Alphonse);
    uint64_t T4 = nowNs();
    I->call("Init");
    for (int K : Live)
      I->call("Insert", {IV(K)});
    uint64_t T5 = nowNs();
    I->call("Rebalance");
    FirstFound = I->call("Contains", {IV(FirstProbe)}).Bool;
    uint64_t T6 = nowNs();
    SetupSamples["lang.parse_s"].push_back((T1 - T0) * 1e-9);
    SetupSamples["lang.sema_s"].push_back((T2 - T1) * 1e-9);
    SetupSamples["transform.transform_s"].push_back((T3 - T2) * 1e-9);
    SetupSamples["interp.construct_s"].push_back((T4 - T3) * 1e-9);
    SetupSamples["setup.build_s"].push_back((T5 - T0) * 1e-9);
    SetupSamples["setup.first_answer_s"].push_back((T6 - T5) * 1e-9);
    SetupTotal.push_back((T6 - T0) * 1e-9);
  }
  setMedians(R, SetupSamples);
  Runtime &RT = I->runtime();
  auto Failed = [&](Interp &X, const char *Where) {
    if (!X.failed())
      return false;
    R.refuse(std::string(Where) + ": " + X.errorMessage());
    X.clearError();
    return true;
  };
  if (!Failed(*I, "set-up") && FirstFound != (Mirror.count(FirstProbe) != 0))
    R.fail("first answer differs from the mirror");

  auto DeepCheck = [&](const char *Where) {
    std::string E = checkHeap(*I, Mirror);
    if (!E.empty())
      R.fail(std::string(Where) + ": " + E);
    long Sum = 0;
    for (int K : Mirror)
      Sum += K;
    if (I->call("KeySum").Int != Sum)
      R.fail(std::string(Where) + ": KeySum() differs from the mirror");
    Failed(*I, Where);
    ++R.Attempted;
  };
  DeepCheck("after set-up");

  // The conventional interpreter replays set-up and the first warm-up
  // updates; incremental and conventional runs must agree.
  Tracer Off;
  Interp Conv(*P.M, *P.Info, ExecMode::Conventional);
  Conv.call("Init");
  for (int K : Live)
    Conv.call("Insert", {IV(K)});
  Conv.call("Rebalance");
  if (Conv.call("Contains", {IV(FirstProbe)}).Bool != FirstFound ||
      Conv.call("RootHeight").Int != I->call("RootHeight").Int)
    R.fail("conventional replay differs after set-up");
  Failed(Conv, "conventional replay");

  // Checkpoint round trip of the set-up state: save it, restore it into
  // fresh interpreters, and keep the last one as a twin that runs the
  // warm-up beside the original. restore_s is the median restore, timed
  // to its return or to the error it throws; a restore that throws makes
  // the round trip one refused operation.
  namespace fs = std::filesystem;
  const std::string Path = (fs::path(O.WorkDir) / "alf_avl.ckpt").string();
  std::unique_ptr<Interp> Twin;
  ++R.Attempted;
  try {
    uint64_t C0 = nowNs();
    I->saveCheckpoint(Path);
    uint64_t C1 = nowNs();
    double Bytes = static_cast<double>(fs::file_size(Path));
    std::vector<double> RestoreNs;
    std::string Error;
    for (int Rep = 0; Rep < kRestoreReps; ++Rep) {
      Twin.reset();
      Twin = std::make_unique<Interp>(*P.M, *P.Info, ExecMode::Alphonse);
      uint64_t C2 = nowNs();
      try {
        Twin->restoreCheckpoint(Path);
      } catch (const std::exception &E) {
        Error = E.what();
      }
      RestoreNs.push_back(static_cast<double>(nowNs() - C2));
    }
    double Ns = median(RestoreNs);
    R.set("ckpt.save_s", (C1 - C0) * 1e-9, "s");
    R.set("ckpt.bytes", Bytes, "bytes");
    R.set("restore_s", Ns * 1e-9, "s");
    R.set("ckpt.restore_ns_per_byte", Ns / Bytes, "ns/B");
    if (!Error.empty()) {
      Twin.reset();
      R.refuse("checkpoint restore: " + Error);
    }
  } catch (const std::exception &E) {
    Twin.reset();
    R.refuse(std::string("checkpoint save: ") + E.what());
  }
  for (const char *Suffix : {"", ".tmp", ".delta"})
    fs::remove(Path + Suffix);

  auto NextOp = [&]() {
    size_t EI = G.below(Live.size());
    size_t II = G.below(Absent.size());
    Op P{Live[EI], Absent[II], Hot[G.below(kHotProbes)]};
    Live[EI] = P.InsertKey;
    Absent[II] = P.EraseKey;
    Mirror.erase(P.EraseKey);
    Mirror.insert(P.InsertKey);
    return P;
  };
  auto Expected = [&](const Op &P) {
    return Answers{true, Mirror.count(P.Probe) != 0,
                   static_cast<long>(Mirror.size())};
  };

  std::vector<uint64_t> LatNs;
  uint64_t BusyNs = 0, Updates = 0;
  int Replayed = 0;
  auto Update = [&](bool Timed) {
    Op P = NextOp();
    T.setUpdate(static_cast<uint32_t>(Updates));
    uint64_t T0 = nowNs();
    Answers A = apply(*I, P, T);
    uint64_t Lat = nowNs() - T0;
    if (Timed) {
      LatNs.push_back(Lat);
      BusyNs += Lat;
      ++Updates;
    }
    ++R.Attempted;
    if (Failed(*I, "update"))
      return;
    if (!(A == Expected(P)))
      R.fail("update answers differ from the mirror");
    if (Replayed < kReplayUpdates) {
      ++Replayed;
      Answers C = apply(Conv, P, Off);
      if (!(C == A) ||
          Conv.call("RootHeight").Int != I->call("RootHeight").Int)
        R.fail("conventional replay differs from the incremental run");
      Failed(Conv, "conventional replay");
    }
    if (Twin) {
      Answers B = apply(*Twin, P, Off);
      if (!Failed(*Twin, "restored interpreter") && !(B == A))
        R.fail("restored interpreter answers differently");
    }
  };

  for (int Round = 0; Round < kWarmupRounds; ++Round)
    for (int U = 0; U < kRoundUpdates; ++U)
      Update(false);
  DeepCheck("after warm-up");
  if (Twin) {
    std::string E = checkHeap(*Twin, Mirror);
    if (!E.empty())
      R.fail("restored interpreter: " + E);
    if (Twin->call("RootHeight").Int != I->call("RootHeight").Int)
      R.fail("restored interpreter has another root height");
    Failed(*Twin, "restored interpreter");
    Twin.reset();
  }

  // Timed phase. The first round is the count window.
  T.enable(O.Trace);
  const int Rounds = timedRounds(O, kNominalUpdatesPerSecond, kRoundUpdates);
  uint64_t CpuNs = 0;
  const Statistics &St = RT.stats();
  uint64_t E0 = St.ProcExecutions, S0 = St.StaticCalls, C0 = St.EdgesCreated,
           R0 = St.EdgesRemoved, D0 = St.EdgesDeduped,
           Q0 = St.QuiescenceCutoffs;
  for (int Round = 1; Round <= Rounds; ++Round) {
    uint64_t Cpu0 = processCpuNs();
    for (int U = 0; U < kRoundUpdates; ++U)
      Update(true);
    CpuNs += processCpuNs() - Cpu0;
    if (Round == 1) {
      double N = kRoundUpdates;
      R.set("graph.execs_per_update", (St.ProcExecutions - E0) / N, "count");
      R.set("graph.static_calls_per_update", (St.StaticCalls - S0) / N,
            "count");
      R.set("graph.edges_created_per_update", (St.EdgesCreated - C0) / N,
            "count");
      R.set("graph.edges_removed_per_update", (St.EdgesRemoved - R0) / N,
            "count");
      R.set("graph.edges_deduped_per_update", (St.EdgesDeduped - D0) / N,
            "count");
      R.set("graph.cutoffs_per_update", (St.QuiescenceCutoffs - Q0) / N,
            "count");
      R.set("graph.bytes",
            static_cast<double>(St.GraphNodeBytes + St.GraphEdgeBytes),
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
  if (St.NodesQuarantined != 0)
    R.refuse("nodes were quarantined");
  R.set("timed_rounds", Rounds, "count");
  R.setEndToEnd(median(SetupTotal), Updates, BusyNs * 1e-9, CpuNs * 1e-9,
                std::move(LatNs), kRoundUpdates);
  return R;
}

} // namespace perfbench
