//===- perfbench/main.cpp - Host-time benchmark driver --------------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload from a single thread in a closed loop (a job starts
// when the previous one has finished) and prints the raw measurements as
// one JSON line; perfbench/run.py turns them into the benchmark's metrics.
//
//   perfbench --workload ladder|fuzz|cg|replay --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE] [--setup-only 1]
//
// Set-up: process entry through one untimed warm-up pass over the job
// list. Timed phase: whole passes until --seconds of them have run and at
// least minPasses() passes ran. An untraced run has four set-ups: its own,
// and one in a fresh process of this program (--setup-only 1) after each
// of the timed phase's first two thirds and after it. A traced run sets up
// once, then splits --seconds between an untraced phase and a traced phase
// of the same number of passes, whose difference in jobs/s is the tracing
// overhead.
//
// Every pass's deterministic counts must equal the first pass's, the
// traced phase's must equal the untraced phase's, and each fresh set-up
// process's must equal this process's; a mismatch is a failure.
//
// The machine's speed: after every RefEveryUs of job time the runner runs
// the fixed reference work (Reference.h) once and records its time, which
// is not part of any pass or job time. Each set-up also runs it
// SetUpRefRuns times right after its warm-up pass. perfbench/stats.py
// divides every host time by the reference work's median time.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Trace.h"
#include "Workloads.h"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut;
  bool SetupOnly = false;
  /// This program, for starting fresh set-up processes.
  std::string Self;
};

/// Measurements of one phase (a run of whole timed passes).
struct Phase {
  /// The passes' time on the benchmark clock and on a wall clock; the
  /// difference is time the process did not run (steal, preemption).
  double CpuS = 0.0, WallS = 0.0;
  std::vector<double> PassS;
  std::vector<double> JobMs;
  std::map<std::string, std::vector<double>> Layers;
  std::map<std::string, uint64_t> Counts;
  /// Times of the reference work run between the phase's jobs.
  std::vector<double> RefUs;
};

/// Job time between two runs of the reference work, and the runs of it
/// after each set-up.
constexpr double RefEveryUs = 100e3;
constexpr int SetUpRefRuns = 5;

/// Median time of SetUpRefRuns runs of the reference work.
double setUpReference() {
  std::vector<double> Us;
  for (int I = 0; I < SetUpRefRuns; ++I)
    Us.push_back(runReferenceWork());
  std::sort(Us.begin(), Us.end());
  return Us[Us.size() / 2];
}

/// Set-up times from process entry through the warm-up pass, each with the
/// reference work's median time right after it.
struct SetUps {
  std::vector<double> Seconds, RefUs;
};

class Runner {
public:
  Runner(const Options &O) : O(O) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  int run();

private:
  /// Runs one set-up in a fresh process of this program and appends its
  /// times to \p Setup.
  void spawnSetUp(SetUps &Setup);
  /// Runs one pass; returns its deterministic record.
  PassRecord pass(Phase *Timed);
  void checkDeterminism(const PassRecord &Rec, bool TracedPhase);
  void failure(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(Why);
  }
  std::string json(const SetUps &Setup, const Phase &Untraced,
                   const Phase *Traced, double SimSpeedup) const;

  /// Moves the process to the next CPU it may run on once 50 ms of work
  /// ran on the current one, so every run samples every CPU alike. On a
  /// shared virtual machine the vCPUs differ in speed by up to 25% at one
  /// moment; eight ladder runs left to the scheduler spread 29% in
  /// jobs_per_s, eight rotating runs interleaved with them 8%.
  void rotateCpu() {
    if (Cpus.size() < 2 || nowMicros() - LastMoveUs < 50e3)
      return;
    NextCpu = (NextCpu + 1) % Cpus.size();
    pinTo(Cpus[NextCpu]);
    LastMoveUs = nowMicros();
  }
  /// Restricts the process to \p Cpu, or with -1 lets it run on all of
  /// them again.
  void pinTo(int Cpu) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (int C : Cpus)
      if (Cpu < 0 || C == Cpu)
        CPU_SET(C, &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

  const Options &O;
  std::vector<int> Cpus;
  size_t NextCpu = 0;
  double LastMoveUs = 0.0;
  /// Job time since the reference work last ran, and the reference work's
  /// CPU and wall time within the current pass.
  double JobUsSinceRef = 0.0;
  double PassRefUs = 0.0, PassRefWallUs = 0.0;
  std::unique_ptr<BenchWorkload> W;
  Tracer T;
  uint64_t NextJob = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  /// First pass of the untraced and of the traced phase.
  std::optional<PassRecord> Ref, TracedRef;
};

PassRecord Runner::pass(Phase *Timed) {
  PassRecord Rec;
  W->beginPass();
  for (size_t I = 0; I < W->size(); ++I) {
    rotateCpu();
    T.beginJob(NextJob++);
    double Start = nowMicros();
    JobOutcome Out;
    {
      ScopedSpan Job(T, "bench.job");
      Out = W->runJob(I, T, Rec);
    }
    double Ms = (nowMicros() - Start) / 1000.0;
    std::map<std::string, double> Layers = T.endJob();
    ++Attempted;
    if (!Out.OK)
      failure(Out.Failure);
    if (!Timed)
      continue;
    Timed->JobMs.push_back(Ms);
    if (T.enabled())
      for (auto &[Name, V] : Layers)
        Timed->Layers[Name].push_back(V);
    JobUsSinceRef += Ms * 1000.0;
    if (JobUsSinceRef >= RefEveryUs) {
      double WallStart = wallMicros();
      double Us = runReferenceWork();
      PassRefWallUs += wallMicros() - WallStart;
      PassRefUs += Us;
      Timed->RefUs.push_back(Us);
      JobUsSinceRef = 0.0;
    }
  }
  W->endPass(Rec);
  if (Timed)
    Timed->Counts = Rec.Counts;
  return Rec;
}

/// FNV-1a over a pass's counts and simulated speedup: what a fresh set-up
/// process reports, to be compared with this process's first pass.
uint64_t digest(const PassRecord &Rec) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Add = [&](const std::string &S) {
    for (unsigned char C : S)
      H = (H ^ C) * 0x100000001b3ULL;
  };
  for (auto &[K, V] : Rec.Signature)
    Add(K + "=" + std::to_string(V) + ";");
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Rec.SimSpeedup);
  Add(Buf);
  return H;
}

void Runner::spawnSetUp(SetUps &Setup) {
  // The child inherits the affinity mask: give it every CPU, so that it
  // rotates over them as this process does.
  pinTo(-1);
  ++Attempted;
  int Fd[2];
  if (pipe(Fd) != 0) {
    failure("set-up: cannot create a pipe");
    return;
  }
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&FA, Fd[0]);
  posix_spawn_file_actions_addclose(&FA, Fd[1]);
  std::string Seed = std::to_string(O.Seed);
  const char *Args[] = {O.Self.c_str(), "--workload", O.Workload.c_str(),
                        "--seed",       Seed.c_str(), "--setup-only",
                        "1",            nullptr};
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, O.Self.c_str(), &FA, nullptr,
                        const_cast<char *const *>(Args), environ);
  posix_spawn_file_actions_destroy(&FA);
  close(Fd[1]);
  std::string Out;
  char Buf[256];
  ssize_t N;
  while (Err == 0 && ((N = read(Fd[0], Buf, sizeof(Buf))) > 0 ||
                      (N < 0 && errno == EINTR)))
    if (N > 0)
      Out.append(Buf, (size_t)N);
  close(Fd[0]);
  int Status = 0;
  while (Err == 0 && waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  LastMoveUs = -1e18; // re-pin at the next job

  double Seconds = 0.0, RefUs = 0.0;
  unsigned long long Digest = 0;
  if (Err != 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      std::sscanf(Out.c_str(), "%lf %llu %lf", &Seconds, &Digest, &RefUs) !=
          3) {
    failure("set-up: a fresh process failed its warm-up pass");
    return;
  }
  if (Digest != digest(*Ref))
    failure("determinism: a fresh process's counts differ from this one's");
  Setup.Seconds.push_back(Seconds);
  Setup.RefUs.push_back(RefUs);
}

/// \p A and \p B agree on every key of \p A, and B has all of them.
bool sameOn(const std::map<std::string, uint64_t> &A,
            const std::map<std::string, uint64_t> &B) {
  for (auto &[K, V] : A) {
    auto It = B.find(K);
    if (It == B.end() || It->second != V)
      return false;
  }
  return true;
}

void Runner::checkDeterminism(const PassRecord &Rec, bool TracedPhase) {
  std::optional<PassRecord> &R = TracedPhase ? TracedRef : Ref;
  if (!R) {
    R = Rec;
    if (!TracedPhase || !Ref)
      return;
    // Traced compiles record their passes; every untraced count must
    // still repeat exactly.
    ++Attempted;
    if (!sameOn(Ref->Signature, Rec.Signature) ||
        Ref->SimSpeedup != Rec.SimSpeedup)
      failure("determinism: traced counts differ from the untraced run");
    return;
  }
  ++Attempted;
  if (Rec.Signature != R->Signature || Rec.SimSpeedup != R->SimSpeedup)
    failure("determinism: a pass's counts differ from the first pass");
}

int Runner::run() {
  W = makeWorkload(O.Workload, O.Seed);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  // The set-up: from process entry (the clock's zero), which includes
  // building the workload, through one warm-up pass.
  checkDeterminism(pass(nullptr), false);
  SetUps Setup;
  Setup.Seconds.push_back(nowMicros() / 1e6);
  Setup.RefUs.push_back(setUpReference());
  if (O.SetupOnly) {
    std::printf("%.17g %llu %.17g\n", Setup.Seconds[0],
                (unsigned long long)digest(*Ref), Setup.RefUs[0]);
    for (const std::string &Why : Failures)
      std::fprintf(stderr, "perfbench: set-up: %s\n", Why.c_str());
    return Failed ? 1 : 0;
  }

  // Runs whole passes until \p Seconds of them have run (or \p FixedPasses
  // passes). With \p SetUps, a fresh set-up process also runs after each
  // third of the phase, so the set-up times sample the same stretch of the
  // machine's drifting speed as the passes do.
  auto timedPhase = [&](double Seconds, unsigned FixedPasses, bool Traced,
                        bool SetUps) {
    Phase P;
    unsigned Thirds = 1;
    auto More = [&] {
      if (FixedPasses)
        return P.PassS.size() < FixedPasses;
      return P.PassS.size() < W->minPasses() || P.CpuS < Seconds;
    };
    while (More()) {
      if (SetUps && Thirds < 3 && P.CpuS >= Thirds * Seconds / 3) {
        spawnSetUp(Setup);
        ++Thirds;
      }
      PassRefUs = PassRefWallUs = 0.0;
      double WallStart = wallMicros();
      double Start = nowMicros();
      checkDeterminism(pass(&P), Traced);
      double PassS = (nowMicros() - Start - PassRefUs) / 1e6;
      P.PassS.push_back(PassS);
      P.CpuS += PassS;
      P.WallS += (wallMicros() - WallStart - PassRefWallUs) / 1e6;
    }
    return P;
  };

  Phase Untraced = timedPhase(O.Trace ? O.Seconds / 2 : O.Seconds, 0, false,
                              /*SetUps=*/!O.Trace);
  if (!O.Trace)
    spawnSetUp(Setup);
  std::optional<Phase> Traced;
  if (O.Trace) {
    // Pass timing changes the pipeline fingerprint: warm up again (the
    // replay cache refills here), then trace as many passes as above.
    W->setTimePasses(true);
    checkDeterminism(pass(nullptr), true);
    T.setEnabled(true);
    Traced = timedPhase(0, Untraced.PassS.size(), true, /*SetUps=*/false);
    T.setEnabled(false);
    if (!O.TraceOut.empty() && !T.writeChromeTrace(O.TraceOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   O.TraceOut.c_str());
      return 2;
    }
  }

  double SimSpeedup = Ref ? Ref->SimSpeedup : 0.0;
  if (!O.Trace) {
    JobOutcome Model;
    if (double S = W->modelSpeedup(Model)) {
      SimSpeedup = S;
      ++Attempted;
    }
    if (!Model.OK)
      failure(Model.Failure);
  }

  std::string Out = json(Setup, Untraced, Traced ? &*Traced : nullptr,
                         SimSpeedup);
  std::fputs(Out.c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

void appendNumber(std::string &S, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  S += Buf;
}

void appendArray(std::string &S, const std::vector<double> &V) {
  S += '[';
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      S += ',';
    appendNumber(S, V[I]);
  }
  S += ']';
}

/// Names are benchmark-chosen identifiers; failure text is escaped.
void appendString(std::string &S, const std::string &V) {
  S += '"';
  for (char C : V) {
    if (C == '"' || C == '\\')
      S += '\\';
    if ((unsigned char)C < 0x20)
      C = ' ';
    S += C;
  }
  S += '"';
}

void appendPhase(std::string &S, const Phase &P) {
  S += "{\"passes\":" + std::to_string(P.PassS.size()) + ",\"cpu_s\":";
  appendNumber(S, P.CpuS);
  S += ",\"wall_s\":";
  appendNumber(S, P.WallS);
  S += ",\"pass_s\":";
  appendArray(S, P.PassS);
  S += ",\"job_ms\":";
  appendArray(S, P.JobMs);
  S += ",\"ref_us\":";
  appendArray(S, P.RefUs);
  S += ",\"counts\":{";
  bool First = true;
  for (auto &[K, V] : P.Counts) {
    S += First ? "" : ",";
    First = false;
    appendString(S, K);
    S += ':' + std::to_string(V);
  }
  S += "},\"layers\":{";
  First = true;
  for (auto &[K, V] : P.Layers) {
    S += First ? "" : ",";
    First = false;
    appendString(S, K);
    S += ':';
    appendArray(S, V);
  }
  S += "}}";
}

std::string Runner::json(const SetUps &Setup,
                         const Phase &Untraced, const Phase *Traced,
                         double SimSpeedup) const {
  struct rusage RU = {};
  getrusage(RUSAGE_SELF, &RU);
  std::string S = "{\"workload\":";
  appendString(S, O.Workload);
  S += ",\"seed\":" + std::to_string(O.Seed);
  S += ",\"jobs_per_pass\":" + std::to_string(W->size());
  S += ",\"setup_s\":";
  appendArray(S, Setup.Seconds);
  S += ",\"setup_ref_us\":";
  appendArray(S, Setup.RefUs);
  S += ",\"untraced\":";
  appendPhase(S, Untraced);
  if (Traced) {
    S += ",\"traced\":";
    appendPhase(S, *Traced);
  }
  S += ",\"sim_speedup_geomean\":";
  appendNumber(S, SimSpeedup);
  S += ",\"peak_rss_mb\":";
  appendNumber(S, (double)RU.ru_maxrss / 1024.0);
  S += ",\"attempted\":" + std::to_string(Attempted);
  S += ",\"failed\":" + std::to_string(Failed);
  S += ",\"failures\":[";
  for (size_t I = 0; I < Failures.size(); ++I) {
    S += I ? "," : "";
    appendString(S, Failures[I]);
  }
  S += "]}";
  return S;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(V.c_str(), &End);
    else if (Flag == "--trace")
      O.Trace = V == "1";
    else if (Flag == "--trace-out")
      O.TraceOut = V;
    else if (Flag == "--setup-only")
      O.SetupOnly = V == "1";
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Self = Argv[0];
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--trace-out FILE] [--setup-only 1]\n");
    return 2;
  }
  return Runner(O).run();
}
