//===- sheet_sessions.cpp - Spreadsheet sessions behind the service ------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// 512 sessions of a SessionManager with a pool of 2 workers, each session
// holding a 12x12 spreadsheet in which row 0 holds literals and every
// other cell sums two cells of the row above. One client thread sends
// batches of 32 edits, Zipf(1.1) over the sessions, through
// SessionManager::mutate and then runs one drainCycle(): a closed loop.
// The edits are ~80% literal writes to row 0 (a deep cone below each),
// ~15% formula rewrites in row 6 (FormulaParser, edges re-made) and ~5%
// setAll batches of 4 edits (a transaction with an undo journal). After
// each cycle the client reads back one bottom-row cell of every session it
// edited; an edit's latency runs from its enqueue to the end of that
// read-back, because cells are demand-evaluated and recompute only there.
//
// The benchmark generated every formula, so it keeps its own model of every
// sheet; each cell read is checked against it, and at the end every cell
// of every session is.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "service/SessionManager.h"
#include "spreadsheet/Spreadsheet.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>

using alphonse::ServiceConfig;
using alphonse::Session;
using alphonse::SessionManager;
using alphonse::Statistics;
using alphonse::WaveOutcome;
using alphonse::spreadsheet::Spreadsheet;

namespace perfbench {
namespace {

/// Each 12x12 session costs ~0.5 MiB and every edit adds ~1.5 KiB that is
/// never given back (README.md), so the service is kept to 512 sessions.
constexpr int kSessions = 512;
constexpr int kDim = 12;
constexpr int kFormulaRow = 6;
constexpr int kBatchEdits = 32;
constexpr int kRoundBatches = 8;
constexpr int kWarmupRounds = 4;
constexpr unsigned kServiceWorkers = 2;
constexpr double kNominalEditsPerSecond = 6000;

/// The benchmark's own model of one sheet: row-0 literals and, for every
/// other cell, the two columns of the row above it sums.
struct SheetModel {
  std::array<int, kDim> Lit{};
  std::array<std::array<uint8_t, kDim>, kDim> A{}, B{};

  std::array<std::array<int, kDim>, kDim> values() const {
    std::array<std::array<int, kDim>, kDim> V{};
    V[0] = Lit;
    for (int R = 1; R < kDim; ++R)
      for (int C = 0; C < kDim; ++C)
        V[R][C] = V[R - 1][A[R][C]] + V[R - 1][B[R][C]];
    return V;
  }
};

std::string sumFormula(int Row, int A, int B) {
  return "cell(" + std::to_string(Row) + "," + std::to_string(A) +
         ") + cell(" + std::to_string(Row) + "," + std::to_string(B) + ")";
}

/// Zipf(1.1) over session ranks, by inverse CDF.
class Zipf {
public:
  explicit Zipf(size_t N) {
    double Sum = 0;
    for (size_t I = 1; I <= N; ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I), 1.1);
      Cdf.push_back(Sum);
    }
  }
  size_t draw(Rng &G) {
    double U = G.unit() * Cdf.back();
    return std::min<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin(),
        Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

struct Totals {
  uint64_t Execs = 0, EdgesCreated = 0, EdgesRemoved = 0, EdgesDeduped = 0,
           Cutoffs = 0, UndoEntries = 0, Commits = 0, Quarantined = 0,
           Bytes = 0;
  void add(const Statistics &S) {
    Execs += S.ProcExecutions;
    EdgesCreated += S.EdgesCreated;
    EdgesRemoved += S.EdgesRemoved;
    EdgesDeduped += S.EdgesDeduped;
    Cutoffs += S.QuiescenceCutoffs;
    UndoEntries += S.TxnUndoEntries;
    Commits += S.TxnCommitted;
    Quarantined += S.NodesQuarantined;
    Bytes += S.GraphNodeBytes + S.GraphEdgeBytes;
  }
};

struct Service {
  std::unique_ptr<SessionManager> M;
  std::vector<Session::Id> Ids;

  Spreadsheet &sheet(size_t S) {
    return *M->find(Ids[S])->program<Spreadsheet>();
  }
  Totals totals() {
    Totals T;
    for (Session::Id Id : Ids)
      T.add(M->find(Id)->runtime().stats());
    return T;
  }
};

} // namespace

Result runSheetSessions(const Options &O, Tracer &T) {
  Result R;
  R.SpanLayer = {{"service.mutate", "write"},
                 {"spreadsheet.set_literal", "write"},
                 {"spreadsheet.set_formula", "write"},
                 {"spreadsheet.set_all", "write"},
                 {"service.drain_cycle", "propagate"},
                 {"spreadsheet.value", "read"}};
  // A batch: its edits, one drain cycle, and one read-back per session it
  // edited. Each edit goes through mutate with exactly one sheet call.
  R.SpanChildren = {
      {"batch",
       {{"service.mutate", {kBatchEdits, kBatchEdits}},
        {"service.drain_cycle", {1, 1}},
        {"spreadsheet.value", {1, kBatchEdits}}}},
      {"service.mutate",
       {{"spreadsheet.set_literal", {0, 1}},
        {"spreadsheet.set_formula", {0, 1}},
        {"spreadsheet.set_all", {0, 1}},
        {"*", {1, 1}}}}};
  Rng G(O.Seed);

  // Inputs: every sheet's literals; formulas start as the two cells above
  // and to the right. Session ranks are shuffled so the hot set moves
  // with the seed.
  std::vector<SheetModel> Model(kSessions);
  for (SheetModel &Sm : Model) {
    for (int C = 0; C < kDim; ++C)
      Sm.Lit[C] = static_cast<int>(G.below(100));
    for (int Row = 1; Row < kDim; ++Row)
      for (int C = 0; C < kDim; ++C) {
        Sm.A[Row][C] = static_cast<uint8_t>(C);
        Sm.B[Row][C] = static_cast<uint8_t>((C + 1) % kDim);
      }
  }
  std::vector<size_t> RankToSession(kSessions);
  for (int I = 0; I < kSessions; ++I)
    RankToSession[I] = I;
  for (int I = kSessions - 1; I > 0; --I)
    std::swap(RankToSession[I], RankToSession[G.below(I + 1)]);

  // Set-up, repeated; the last service is the one measured.
  std::map<std::string, std::vector<double>> SetupSamples;
  std::vector<double> SetupTotal, OpenUs;
  Service Svc;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Svc.M.reset();
    Svc.Ids.clear();
    OpenUs.clear();
    uint64_t T0 = nowNs();
    ServiceConfig Cfg;
    Cfg.Workers = kServiceWorkers;
    Svc.M = std::make_unique<SessionManager>(Cfg);
    for (int S = 0; S < kSessions; ++S) {
      uint64_t O0 = nowNs();
      Session &Sess = Svc.M->open();
      OpenUs.push_back((nowNs() - O0) * 1e-3);
      Svc.Ids.push_back(Sess.id());
      const SheetModel &Sm = Model[S];
      Svc.M->mutate(Sess.id(), [&](Session &Se) {
        Spreadsheet &Sh =
            Se.emplaceProgram<Spreadsheet>(Se.runtime(), kDim, kDim);
        for (int C = 0; C < kDim; ++C)
          Sh.setLiteral(0, C, Sm.Lit[C]);
        for (int Row = 1; Row < kDim; ++Row)
          for (int C = 0; C < kDim; ++C)
            if (!Sh.setFormula(Row, C,
                               sumFormula(Row - 1, Sm.A[Row][C],
                                          Sm.B[Row][C])))
              R.refuse("set-up formula did not parse");
      });
    }
    uint64_t T1 = nowNs();
    Svc.M->drainAll();
    for (int S = 0; S < kSessions; ++S)
      for (int C = 0; C < kDim; ++C)
        Svc.sheet(S).value(kDim - 1, C);
    uint64_t T2 = nowNs();
    SetupSamples["setup.build_s"].push_back((T1 - T0) * 1e-9);
    SetupSamples["setup.first_answer_s"].push_back((T2 - T1) * 1e-9);
    SetupTotal.push_back((T2 - T0) * 1e-9);
  }
  setMedians(R, SetupSamples);
  R.set("service.open_us", median(OpenUs), "us");

  auto CheckAll = [&](const char *Where) {
    for (int S = 0; S < kSessions; ++S) {
      auto V = Model[S].values();
      Spreadsheet &Sh = Svc.sheet(S);
      for (int Row = 0; Row < kDim; ++Row)
        for (int C = 0; C < kDim; ++C)
          if (Sh.value(Row, C) != V[Row][C]) {
            R.fail(std::string(Where) + ": cell differs from the model");
            return;
          }
    }
    ++R.Attempted;
  };
  CheckAll("after set-up");

  Zipf Z(kSessions);
  std::vector<uint64_t> LatNs;
  uint64_t BusyNs = 0, Edits = 0, Batches = 0, SessionsDrained = 0;
  uint64_t Batch = 0;
  std::vector<uint64_t> EnqueueNs;
  std::vector<size_t> Touched;
  std::vector<int> ReadBack;
  std::vector<char> IsTouched(kSessions, 0);

  // One edit of session S; \returns false when the program refused it.
  // The draws, the formula text and the model come first, so the
  // service.mutate span covers the program's work alone.
  auto Edit = [&](size_t S) {
    SheetModel &Sm = Model[S];
    double U = G.unit();
    bool Ok = true;
    if (U < 0.80) {
      int C = static_cast<int>(G.below(kDim));
      int V = static_cast<int>(G.below(100));
      Sm.Lit[C] = V;
      SpanScope Mut(T, "service.mutate");
      Svc.M->mutate(Svc.Ids[S], [&](Session &Se) {
        SpanScope Sp(T, "spreadsheet.set_literal");
        Se.program<Spreadsheet>()->setLiteral(0, C, V);
      });
    } else if (U < 0.95) {
      int C = static_cast<int>(G.below(kDim));
      int A = static_cast<int>(G.below(kDim));
      int B = static_cast<int>(G.below(kDim));
      std::string F = sumFormula(kFormulaRow - 1, A, B);
      Sm.A[kFormulaRow][C] = static_cast<uint8_t>(A);
      Sm.B[kFormulaRow][C] = static_cast<uint8_t>(B);
      SpanScope Mut(T, "service.mutate");
      Svc.M->mutate(Svc.Ids[S], [&](Session &Se) {
        SpanScope Sp(T, "spreadsheet.set_formula");
        Ok = Se.program<Spreadsheet>()->setFormula(kFormulaRow, C, F);
      });
    } else {
      // Two literals and two formula rewrites, on distinct columns.
      int C0 = static_cast<int>(G.below(kDim));
      std::vector<Spreadsheet::CellEdit> Txn;
      for (int K = 0; K < 4; ++K) {
        int C = (C0 + 3 * K) % kDim;
        if (K < 2) {
          int V = static_cast<int>(G.below(100));
          Txn.push_back({0, C, std::to_string(V)});
          Sm.Lit[C] = V;
        } else {
          int A = static_cast<int>(G.below(kDim));
          int B = static_cast<int>(G.below(kDim));
          Txn.push_back({kFormulaRow, C, sumFormula(kFormulaRow - 1, A, B)});
          Sm.A[kFormulaRow][C] = static_cast<uint8_t>(A);
          Sm.B[kFormulaRow][C] = static_cast<uint8_t>(B);
        }
      }
      SpanScope Mut(T, "service.mutate");
      Svc.M->mutate(Svc.Ids[S], [&](Session &Se) {
        SpanScope Sp(T, "spreadsheet.set_all");
        Ok = Se.program<Spreadsheet>()->setAll(Txn);
      });
    }
    return Ok;
  };

  auto RunBatch = [&](bool Timed) {
    T.setUpdate(static_cast<uint32_t>(Batch++));
    EnqueueNs.clear();
    Touched.clear();
    ReadBack.clear();
    uint64_t B0 = nowNs();
    size_t Quiescent;
    {
      SpanScope Root(T, "batch");
      for (int E = 0; E < kBatchEdits; ++E) {
        size_t S = RankToSession[Z.draw(G)];
        EnqueueNs.push_back(nowNs());
        if (!Edit(S))
          R.refuse("the program refused an edit");
        ++R.Attempted;
        if (!IsTouched[S]) {
          IsTouched[S] = 1;
          Touched.push_back(S);
        }
      }
      {
        SpanScope Sp(T, "service.drain_cycle");
        Quiescent = Svc.M->drainCycle();
      }
      // The client reads back one bottom-row cell per session it edited.
      // Cells are demand-evaluated, so this is where they recompute.
      for (size_t S : Touched) {
        SpanScope Sp(T, "spreadsheet.value");
        ReadBack.push_back(Svc.sheet(S).value(kDim - 1, S % kDim));
      }
    }
    const uint64_t Done = nowNs();
    for (size_t I = 0; I < Touched.size(); ++I) {
      size_t S = Touched[I];
      if (ReadBack[I] != Model[S].values()[kDim - 1][S % kDim])
        R.fail("drained cell differs from the model");
      IsTouched[S] = 0;
      Session *Se = Svc.M->find(Svc.Ids[S]);
      if (Se->dirty() || Se->lastOutcome() != WaveOutcome::Completed)
        R.refuse("a session wave did not complete");
    }
    if (Quiescent != Touched.size())
      R.refuse("drain cycle left sessions behind");
    if (Timed) {
      for (uint64_t E : EnqueueNs)
        LatNs.push_back(Done - E);
      BusyNs += Done - B0;
      Edits += kBatchEdits;
      ++Batches;
      SessionsDrained += Quiescent;
    }
  };

  for (int Round = 0; Round < kWarmupRounds; ++Round)
    for (int B = 0; B < kRoundBatches; ++B)
      RunBatch(false);

  // Timed phase. The first round is the count window.
  T.enable(O.Trace);
  const int Rounds =
      timedRounds(O, kNominalEditsPerSecond, kRoundBatches * kBatchEdits);
  uint64_t CpuNs = 0;
  Totals Before = Svc.totals();
  for (int Round = 1; Round <= Rounds; ++Round) {
    uint64_t Cpu0 = processCpuNs();
    for (int B = 0; B < kRoundBatches; ++B)
      RunBatch(true);
    CpuNs += processCpuNs() - Cpu0;
    if (Round == 1) {
      Totals After = Svc.totals();
      double N = kRoundBatches * kBatchEdits;
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
      uint64_t Commits = After.Commits - Before.Commits;
      R.set("graph.undo_entries_per_batch",
            Commits ? double(After.UndoEntries - Before.UndoEntries) / Commits
                    : 0,
            "count");
      R.set("graph.bytes", static_cast<double>(After.Bytes), "bytes");
      R.set("graph.bytes_per_session",
            static_cast<double>(After.Bytes) / kSessions, "bytes");
    }
  }
  T.enable(false);
  R.TracedUpdates = O.Trace ? Edits : 0;

  CheckAll("at the end");
  Totals End = Svc.totals();
  if (End.Quarantined != 0)
    R.refuse("nodes were quarantined");
  const alphonse::ServiceStats &SS = Svc.M->stats();
  if (SS.WavesDegraded + SS.WavesDeferred + SS.WavesShed + SS.WavesFaulted)
    R.refuse("the service degraded, deferred, shed or faulted a wave");

  R.set("timed_rounds", Rounds, "count");
  R.set("service.sessions_per_cycle",
        Batches ? double(SessionsDrained) / Batches : 0, "count");
  R.setEndToEnd(median(SetupTotal), Edits, BusyNs * 1e-9, CpuNs * 1e-9,
                std::move(LatNs), kRoundBatches * kBatchEdits);
  return R;
}

} // namespace perfbench
