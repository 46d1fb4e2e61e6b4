//===- main.cpp - Benchmark program entry point ---------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR [--trace-file FILE] [--alf FILE]
//
// Runs one workload and prints, last, one line
//   PERFBENCH_ALL {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding every metric it measured. perfbench/run.py builds this program
// and picks the metrics BENCHMARK.json names out of that line.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

LatencySummary summarize(std::vector<uint64_t> LatNs) {
  LatencySummary S;
  S.Count = LatNs.size();
  if (LatNs.empty())
    return S;
  std::sort(LatNs.begin(), LatNs.end());
  auto At = [&](double Q) {
    size_t I = static_cast<size_t>(std::ceil(Q * LatNs.size()));
    I = I == 0 ? 0 : I - 1;
    return LatNs[std::min(I, LatNs.size() - 1)] * 1e-3;
  };
  S.P50Us = At(0.50);
  S.P99Us = At(0.99);
  for (double Q : {0.9, 0.99, 0.999, 0.9999})
    if ((1.0 - Q) * LatNs.size() >= 10.0) {
      S.TailQuantile = Q;
      S.TailUs = At(Q);
    }
  return S;
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

void Result::setEndToEnd(double SetupS, uint64_t Updates, double BusyS,
                         double CpuS, std::vector<uint64_t> LatNs,
                         size_t RoundUpdates) {
  // How steady the host was: the spread of the median over each round.
  std::vector<double> RoundP50;
  for (size_t I = 0; I + RoundUpdates <= LatNs.size(); I += RoundUpdates)
    RoundP50.push_back(
        summarize({LatNs.begin() + I, LatNs.begin() + I + RoundUpdates})
            .P50Us);
  std::sort(RoundP50.begin(), RoundP50.end());
  if (!RoundP50.empty())
    std::printf("round p50 us: min %.1f q1 %.1f median %.1f q3 %.1f "
                "max %.1f over %zu rounds\n",
                RoundP50.front(), RoundP50[RoundP50.size() / 4],
                RoundP50[RoundP50.size() / 2],
                RoundP50[RoundP50.size() * 3 / 4], RoundP50.back(),
                RoundP50.size());
  LatencySummary L = summarize(std::move(LatNs));
  set("setup_s", SetupS, "s");
  set("updates_per_s", BusyS > 0 ? Updates / BusyS : 0, "1/s");
  set("updates_per_cpu_s", CpuS > 0 ? Updates / CpuS : 0, "1/s");
  set("update_p50_us", L.P50Us, "us");
  set("update_p99_us", L.P99Us, "us");
  set("update_tail_us", L.TailUs, "us");
  set("update_tail_quantile", L.TailQuantile, "1");
  set("update_samples", static_cast<double>(L.Count), "count");
  set("peak_rss_mb", peakRssMiB(), "MiB");
}

void setMedians(Result &R,
                const std::map<std::string, std::vector<double>> &Samples) {
  for (const auto &[Name, V] : Samples)
    R.set(Name, median(V), "s");
}

} // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "avl_churn|sheet_sessions|alf_avl --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-file FILE] "
               "[--alf FILE]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value after " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--alf")
      O.AlfPath = V;
    else if (A == "--trace-file")
      O.TraceFile = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

/// Number of updates whose spans go into the trace file; the per-layer
/// table covers every traced update.
constexpr uint32_t kTraceFileUpdates = 2048;

/// Most of a traced update the benchmark's own code may take.
constexpr double kOwnShareLimit = 0.02;

/// Checks that every span has the children R.SpanChildren says it must.
/// \returns "" when all do, else the first span that does not.
std::string checkShape(const std::vector<Tracer::Span> &S, const Result &R) {
  std::vector<std::map<std::string, uint32_t>> Kids(S.size());
  for (const Tracer::Span &Sp : S)
    if (Sp.Parent >= 0)
      ++Kids[Sp.Parent][Sp.Name];
  for (size_t I = 0; I < S.size(); ++I) {
    auto Rule = R.SpanChildren.find(S[I].Name);
    bool Ok;
    if (Rule == R.SpanChildren.end()) {
      Ok = Kids[I].empty() && S[I].Parent >= 0;
    } else {
      uint32_t Total = 0;
      Ok = true;
      for (const auto &[Name, N] : Kids[I]) {
        Total += N;
        Ok &= Rule->second.count(Name) != 0;
      }
      for (const auto &[Name, MinMax] : Rule->second) {
        auto K = Kids[I].find(Name);
        uint32_t N = Name == "*" ? Total : K == Kids[I].end() ? 0 : K->second;
        Ok &= N >= MinMax.first && N <= MinMax.second;
      }
    }
    if (!Ok) {
      std::string Got;
      for (const auto &[Name, N] : Kids[I])
        Got += " " + Name + "x" + std::to_string(N);
      return "span '" + std::string(S[I].Name) + "' of update " +
             std::to_string(S[I].Update) + " has children {" + Got +
             " } against the expected shape";
    }
  }
  return "";
}

/// Self times per layer from the spans, the nesting and shape checks, and
/// the Chrome trace_event file.
void digestTrace(const Tracer &T, Result &R, const std::string &TraceFile) {
  const std::vector<Tracer::Span> &S = T.spans();
  std::vector<uint64_t> ChildNs(S.size(), 0);
  bool Nested = true;
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I].End < S[I].Start)
      Nested = false;
    if (S[I].Parent >= 0) {
      const Tracer::Span &P = S[S[I].Parent];
      if (S[I].Start < P.Start || S[I].End > P.End)
        Nested = false;
      ChildNs[S[I].Parent] += S[I].End - S[I].Start;
    }
  }
  std::map<std::string, double> SelfNs;
  std::map<std::string, uint64_t> Calls;
  uint64_t RootNs = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    uint64_t Dur = S[I].End - S[I].Start;
    if (ChildNs[I] > Dur) {
      Nested = false; // Siblings overlapped.
      continue;
    }
    SelfNs[S[I].Name] += Dur - ChildNs[I];
    ++Calls[S[I].Name];
    if (S[I].Parent < 0)
      RootNs += Dur;
  }
  if (!Nested)
    R.Errors.push_back("trace: spans do not nest");
  if (S.empty() && R.TracedUpdates > 0)
    R.Errors.push_back("trace: no spans were recorded");
  std::string Shape = checkShape(S, R);
  if (!Shape.empty())
    R.Errors.push_back("trace: " + Shape);

  double Updates = std::max<uint64_t>(R.TracedUpdates, 1);
  std::map<std::string, double> LayerUs = {
      {"write", 0}, {"propagate", 0}, {"read", 0}, {"own", 0}};
  std::printf("per-layer self time per update (%llu traced updates):\n",
              static_cast<unsigned long long>(R.TracedUpdates));
  for (const auto &[Name, Ns] : SelfNs) {
    auto L = R.SpanLayer.find(Name);
    std::string Layer = L == R.SpanLayer.end() ? "own" : L->second;
    double Us = Ns * 1e-3 / Updates;
    LayerUs[Layer] += Us;
    std::printf("  %-28s %-9s %12.3f us  %10llu calls\n", Name.c_str(),
                Layer.c_str(), Us,
                static_cast<unsigned long long>(Calls[Name]));
    R.set("span." + Name + "_us", Us, "us");
  }
  double TotalUs = RootNs * 1e-3 / Updates;
  std::printf("  %-28s %-9s %12.3f us\n", "(traced update)", "total",
              TotalUs);
  R.set("write_us", LayerUs["write"], "us");
  R.set("propagate_us", LayerUs["propagate"], "us");
  R.set("read_us", LayerUs["read"], "us");
  R.set("bench_own_us", LayerUs["own"], "us");
  R.set("traced_update_us", TotalUs, "us");
  // Time a public call spends outside every span shows up as the benchmark's
  // own time; a large share means a call was left untraced.
  if (TotalUs > 0 && LayerUs["own"] > kOwnShareLimit * TotalUs)
    R.Errors.push_back("trace: benchmark's own time is over " +
                       std::to_string(int(kOwnShareLimit * 100)) +
                       "% of the update");

  if (TraceFile.empty())
    return;
  std::ofstream Out(TraceFile);
  Out << "{\"traceEvents\":[\n";
  bool First = true;
  uint64_t T0 = S.empty() ? 0 : S.front().Start;
  for (const Tracer::Span &Sp : S) {
    if (Sp.Update >= kTraceFileUpdates)
      continue;
    if (!First)
      Out << ",\n";
    First = false;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"update\":%u}}",
                  Sp.Name, (Sp.Start - T0) * 1e-3, (Sp.End - Sp.Start) * 1e-3,
                  Sp.Update);
    Out << Buf;
  }
  Out << "\n]}\n";
}

double loadAverage() {
  double L[1] = {0};
  return getloadavg(L, 1) == 1 ? L[0] : -1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::printf("host: nproc=%ld load1=%.2f compiler=\"%s\" build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), loadAverage(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::fflush(stdout);

  Tracer T;
  Result R;
  if (O.Workload == "avl_churn")
    R = runAvlChurn(O, T);
  else if (O.Workload == "sheet_sessions")
    R = runSheetSessions(O, T);
  else if (O.Workload == "alf_avl")
    R = runAlfAvl(O, T);
  else
    usage(("unknown workload '" + O.Workload + "'").c_str());

  if (O.Trace)
    digestTrace(T, R, O.TraceFile);

  for (const std::string &E : R.Refused)
    std::printf("failed: %s\n", E.c_str());
  for (const std::string &E : R.Errors)
    std::printf("error: %s\n", E.c_str());
  bool Correct = R.Errors.empty();
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("metric %-40s %.6g %s\n", Name.c_str(), VU.first,
                VU.second.c_str());

  std::printf("PERFBENCH_ALL {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), VU.first, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
