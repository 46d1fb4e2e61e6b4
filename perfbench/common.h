//===- common.h - Shared pieces of the benchmark program --------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, the seeded generator, wall clocks, latency summaries, the span
/// recorder of the traced run and the result block every workload fills.
/// The benchmark calls only public functions of the program; spans are taken
/// here, around those calls, never inside the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for checkpoint files.
  std::string WorkDir = ".";
  /// Chrome trace_event file the traced run writes ("" = none).
  std::string TraceFile;
  /// Alphonse-L source of the alf_avl workload.
  std::string AlfPath;
};

/// splitmix64: the same stream for a seed on every platform and library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ULL + 1) {}

  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t S;
};

inline uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of all threads of this process. The kernel leaves out time
/// the hypervisor stole, which the wall clock counts.
inline uint64_t processCpuNs() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL + Ts.tv_nsec;
}

double median(std::vector<double> V);

/// Median, p99 and the highest of p90/p99/p99.9/p99.99 with at least ten
/// samples beyond it, over per-update latencies in nanoseconds.
struct LatencySummary {
  size_t Count = 0;
  double P50Us = 0, P99Us = 0;
  double TailQuantile = 0, TailUs = 0;
};
LatencySummary summarize(std::vector<uint64_t> LatNs);

/// Peak resident set of this process, in MiB.
double peakRssMiB();

/// Spans of the traced run: one per public call the benchmark makes during
/// the timed phase, nested under the span of the update that made it.
/// Recording is off (begin() returns -1 at once) in the untraced run.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Start;
    uint64_t End;
    int32_t Parent;
    uint32_t Update;
  };

  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  int32_t begin(const char *Name) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, nowNs(), 0, Cur, Update});
    Cur = static_cast<int32_t>(Spans.size() - 1);
    return Cur;
  }
  void end(int32_t Id) {
    if (Id < 0)
      return;
    Spans[Id].End = nowNs();
    Cur = Spans[Id].Parent;
  }
  /// Root spans opened from here on belong to update \p U.
  void setUpdate(uint32_t U) { Update = U; }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled = false;
  int32_t Cur = -1;
  uint32_t Update = 0;
  std::vector<Span> Spans;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

/// What a workload hands back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Wrong outputs and broken invariants; any makes the run incorrect.
  std::vector<std::string> Errors;
  /// Operations the program refused with an error it reported. They count
  /// in Failed, but the run stays correct: correctness speaks of the
  /// operations that did not fail.
  std::vector<std::string> Refused;
  /// Every metric the workload measured: name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Layer of each span name, for the traced run's per-layer table:
  /// "write", "propagate" or "read". The update's root span is "own".
  std::map<std::string, std::string> SpanLayer;
  /// The shape every traced span must have: span name -> child name ->
  /// least and most direct children of that name. The child name "*"
  /// bounds the number of direct children of any name. A span whose name
  /// is not listed must have no children and must not be a root. Written
  /// from what each update calls, apart from where the spans are opened,
  /// so that a public call left outside its span shows.
  std::map<std::string, std::map<std::string, std::pair<uint32_t, uint32_t>>>
      SpanChildren;
  /// Updates covered by the traced spans (edits, for sheet_sessions).
  uint64_t TracedUpdates = 0;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// A wrong output: a failed operation that makes the run incorrect.
  void fail(const std::string &What) {
    ++Failed;
    if (Errors.size() < 16)
      Errors.push_back(What);
  }
  /// An operation the program refused.
  void refuse(const std::string &What) {
    ++Failed;
    if (Refused.size() < 16)
      Refused.push_back(What);
  }
  /// Records the end-to-end figures shared by every workload.
  void setEndToEnd(double SetupS, uint64_t Updates, double BusyS,
                   double CpuS, std::vector<uint64_t> LatNs,
                   size_t RoundUpdates);
};

/// Median of \p Reps set-up samples for each key.
void setMedians(Result &R,
                const std::map<std::string, std::vector<double>> &Samples);

Result runAvlChurn(const Options &O, Tracer &T);
Result runSheetSessions(const Options &O, Tracer &T);
Result runAlfAvl(const Options &O, Tracer &T);

/// Number of set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Rounds of the timed phase. The work is fixed by --seconds times the
/// workload's nominal rate, not by the clock, so that every count, the end
/// state and the memory high-water mark depend on the seed alone. Nominal
/// rates are set so a run stays within its time and memory budget on a
/// 4-vCPU x86 host.
inline int timedRounds(const Options &O, double NominalPerSecond,
                       int RoundUpdates) {
  double Rounds = O.Seconds * NominalPerSecond / RoundUpdates;
  return Rounds < 1 ? 1 : static_cast<int>(Rounds + 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
