//===- perfbench/Workloads.cpp - Benchmark workloads ----------------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/Presets.h"
#include "fuzz/Oracle.h"
#include "ir/AsmWriter.h"
#include "ir/IRContext.h"
#include "ir/Module.h"
#include "rtl/DeviceRTL.h"
#include "service/CompileService.h"
#include "support/Hashing.h"
#include "workloads/CGSolver.h"
#include "workloads/Harness.h"

#include <cmath>

using namespace ompgpu;
using namespace perfbench;

BenchWorkload::~BenchWorkload() = default;

namespace {

/// splitmix64: the benchmark's only source of seeded choices.
uint64_t mix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Fisher-Yates with splitmix64, identical on every standard library.
template <typename T> void shuffle(std::vector<T> &V, uint64_t Seed) {
  uint64_t State = Seed;
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[mix(State) % I]);
}

double geomean(const std::vector<double> &Ratios) {
  double LogSum = 0.0;
  for (double R : Ratios)
    LogSum += std::log(R);
  return Ratios.empty() ? 0.0 : std::exp(LogSum / (double)Ratios.size());
}

/// CPU time over wall time of one benchmark span, for carrying wall-clock
/// pass times over to the benchmark clock.
double cpuPerWall(double CpuUs, double WallUs) {
  return WallUs > 0.0 ? CpuUs / WallUs : 1.0;
}

/// Splits a traced compile's top-level pass times into the layer
/// accumulators. The pipeline times its passes on the wall clock, so each
/// is scaled by \p CpuPerWall, the ratio of the benchmark span that
/// encloses the compile, which keeps every layer on the benchmark clock.
/// \p CompileMs < 0 means the compile's own time was not observable, so
/// driver.other is not derived.
void addPassSplit(Tracer &T, const CompileResult &CR, double CompileMs,
                  double CpuPerWall) {
  double Sum = 0.0;
  for (const PassExecution &E : CR.Passes) {
    if (E.Depth != 0 || E.Skipped)
      continue;
    const char *Layer = "transforms.cleanup";
    if (E.Name == LinkDeviceRTLPassName)
      Layer = "rtl.link";
    else if (E.Name == OpenMPOptPassName)
      Layer = "core.openmp_opt";
    else if (E.Name == MapInferencePassName)
      Layer = "analysis.map_inference";
    else if (E.Name == OMPLintPassName)
      Layer = "analysis.lint";
    T.add(Layer, E.WallMillis * CpuPerWall);
    Sum += E.WallMillis * CpuPerWall;
  }
  if (CompileMs >= 0.0)
    T.add("driver.other", CompileMs - Sum);
}

/// Counts every pass execution that ran (sub-passes included).
uint64_t passesRun(const CompileResult &CR) {
  uint64_t N = 0;
  for (const PassExecution &E : CR.Passes)
    N += !E.Skipped;
  return N;
}

//===----------------------------------------------------------------------===//
// ladder: the Fig. 10/11 configuration ladder
//===----------------------------------------------------------------------===//

/// Forwards to a workload and times its input set-up and output check, so
/// the simulated launch is launchAndCheckWorkload minus those two.
class TracedWorkload final : public Workload {
public:
  TracedWorkload(Workload &W, Tracer &T) : W(W), T(T) {}
  std::string getName() const override { return W.getName(); }
  Function *buildOpenMP(OMPCodeGen &CG) override { return W.buildOpenMP(CG); }
  Function *buildCUDA(Module &M) override { return W.buildCUDA(M); }
  unsigned getGridDim() const override { return W.getGridDim(); }
  unsigned getBlockDim() const override { return W.getBlockDim(); }
  std::vector<uint64_t> setupInputs(GPUDevice &Dev) override {
    ScopedSpan S(T, "workloads.setup_inputs");
    return W.setupInputs(Dev);
  }
  bool checkOutputs(GPUDevice &Dev) override {
    ScopedSpan S(T, "workloads.check_outputs");
    return W.checkOutputs(Dev);
  }

private:
  Workload &W;
  Tracer &T;
};

class LadderWorkload final : public BenchWorkload {
public:
  explicit LadderWorkload(uint64_t Seed) : Presets(evaluationPresetLadder()) {
    Apps.push_back(createXSBench(ProblemSize::Small));
    Apps.push_back(createRSBench(ProblemSize::Small));
    Apps.push_back(createSU3Bench(ProblemSize::Small));
    Apps.push_back(createMiniQMC(ProblemSize::Small));
    Apps.push_back(createXSBenchTransfer(ProblemSize::Small));
    for (size_t A = 0; A < Apps.size(); ++A) {
      IRContext Ctx;
      Module M(Ctx, "probe");
      bool HasCUDA = Apps[A]->buildCUDA(M) != nullptr;
      for (size_t P = 0; P < Presets.size(); ++P)
        if (HasCUDA || !Presets[P].UseCUDA)
          Jobs.push_back({A, P});
    }
    shuffle(Jobs, Seed);
    for (size_t P = 0; P < Presets.size(); ++P) {
      if (Presets[P].Label == "LLVM 12")
        Baseline = P;
      if (Presets[P].Label.find("(LLVM Dev 0)") != std::string::npos)
        Optimized = P;
    }
  }

  size_t size() const override { return Jobs.size(); }

  void setTimePasses(bool On) override {
    for (PresetSpec &P : Presets)
      P.Pipeline.Instrument.TimePasses = On;
  }

  void beginPass() override { Cycles.clear(); }

  JobOutcome runJob(size_t I, Tracer &T, PassRecord &Rec) override {
    JobOutcome Out;
    Workload &W = *Apps[Jobs[I].App];
    const PresetSpec &Preset = Presets[Jobs[I].Preset];
    const PipelineOptions &P = Preset.Pipeline;
    std::string Label = W.getName() + "@" + Preset.Label;

    IRContext Ctx;
    Module M(Ctx, W.getName());
    Function *Kernel = nullptr;
    {
      ScopedSpan S(T, "frontend.emit");
      Kernel = emitWorkloadModule(W, M, P, Preset.UseCUDA);
    }
    std::string KernelName = Kernel->getName();
    CompileResult CR;
    double CompileWallUs = T.enabled() ? wallMicros() : 0.0;
    {
      ScopedSpan S(T, "driver.compile");
      CR = optimizeDeviceModule(M, P);
    }
    if (T.enabled())
      CompileWallUs = wallMicros() - CompileWallUs;
    if (CR.VerifyFailed) {
      Out.fail(Label + ": verifier: " + CR.VerifyError);
      return Out;
    }
    Kernel = M.getFunction(KernelName);
    if (!Kernel) {
      Out.fail(Label + ": kernel lost during optimization");
      return Out;
    }
    TracedWorkload TW(W, T);
    LaunchCheckResult L;
    {
      ScopedSpan S(T, "workloads.launch_and_check");
      L = launchAndCheckWorkload(TW, M, Kernel, P);
    }
    if (!L.Stats.ok())
      Out.fail(Label + ": trap: " + L.Stats.Trap);
    else if (!L.Checked || !L.Correct)
      Out.fail(Label + ": outputs differ from the host reference");

    const KernelStats &S = L.Stats;
    S.forEachCounter([&](const char *Name, uint64_t V) {
      Rec.Signature[Label + "/" + Name] = V;
    });
    Rec.Signature[Label + "/remarks"] = CR.Remarks.size();
    Rec.Counts["gpusim.dynamic_instructions"] += S.DynamicInstructions;
    Rec.Counts["gpusim.cycles"] += S.Cycles;
    Rec.Counts["gpusim.launches"] += 1;
    Rec.Counts["gpusim.barriers"] += S.Barriers;
    Rec.Counts["gpusim.runtime_calls"] += S.RuntimeCalls;
    Rec.Counts["core.remarks"] += CR.Remarks.size();
    if (!CR.Passes.empty()) {
      Rec.Signature[Label + "/passes_run"] = passesRun(CR);
      Rec.Counts["driver.passes_run"] += passesRun(CR);
    }
    Cycles[{Jobs[I].App, Jobs[I].Preset}] = S.Cycles;

    if (T.enabled()) {
      double CompileMs = T.value("driver.compile");
      addPassSplit(T, CR, CompileMs,
                   cpuPerWall(CompileMs * 1000.0, CompileWallUs));
      double LaunchMs = T.value("workloads.launch_and_check#self");
      T.add("gpusim.launch", LaunchMs);
      T.add("gpusim.ms_per_launch", LaunchMs);
      T.add("gpusim.dynamic_instructions", (double)S.DynamicInstructions);
    }
    return Out;
  }

  /// Geomean over XSBench, RSBench, SU3Bench and miniQMC of
  /// Cycles(LLVM 12) / Cycles(LLVM Dev 0): the Fig. 11 headline.
  void endPass(PassRecord &Rec) override {
    std::vector<double> Ratios;
    for (size_t A = 0; A < 4; ++A)
      Ratios.push_back((double)Cycles[{A, Baseline}] /
                       (double)Cycles[{A, Optimized}]);
    Rec.SimSpeedup = geomean(Ratios);
  }

private:
  struct Job {
    size_t App;
    size_t Preset;
  };
  std::vector<PresetSpec> Presets;
  std::vector<std::unique_ptr<Workload>> Apps;
  std::vector<Job> Jobs;
  size_t Baseline = 0, Optimized = 0;
  std::map<std::pair<size_t, size_t>, uint64_t> Cycles;
};

//===----------------------------------------------------------------------===//
// fuzz / replay: differential-fuzz campaigns through the compile service
//===----------------------------------------------------------------------===//

class FuzzWorkload final : public BenchWorkload {
public:
  /// \p Replay resubmits the campaign against a cache filled by the first
  /// pass; otherwise every pass starts from an empty cache.
  FuzzWorkload(uint64_t Seed, bool Replay)
      : Presets(defaultFuzzPresets()), Replay(Replay) {
    // The campaign's kernel structures are the generator's first
    // RecipesPerCampaign recipes, the same for every seed, so every run has
    // the same job mix; the seed sets each recipe's expression seed, which
    // draws its arithmetic and its input data.
    uint64_t State = Seed;
    for (uint64_t I = 0; I < RecipesPerCampaign; ++I) {
      KernelRecipe R = KernelRecipe::sample(I);
      R.ExprSeed = mix(State);
      Recipes.push_back(R);
    }
    freshService();
  }

  size_t size() const override { return Recipes.size(); }

  void setTimePasses(bool On) override {
    TimePasses = On;
    ColdKeys.clear(); // new pipeline fingerprint: the next pass refills
  }

  void beginPass() override {
    if (!Replay)
      freshService();
  }

  JobOutcome runJob(size_t I, Tracer &T, PassRecord &Rec) override {
    JobOutcome Out;
    const KernelRecipe &R = Recipes[I];
    std::vector<CompileRequest> Reqs;
    for (size_t P = 0; P < Presets.size(); ++P)
      Reqs.push_back(makeRequest(R, P, T));
    Clocks.assign(Reqs.size(), RequestClock());

    // ir.hash_module: hashModule over a separately emitted copy of each
    // request's input module (the service hashes its own copy inside).
    if (T.enabled())
      for (size_t P = 0; P < Reqs.size(); ++P) {
        IRContext Ctx;
        Module M(Ctx, "hash-copy");
        {
          ScopedSpan S(T, "bench.emit_copy");
          emitFuzzKernel(M, R, Presets[P]);
        }
        double Start = nowMicros();
        {
          ScopedSpan S(T, "ir.hash_module");
          (void)hashModule(M);
        }
        Clocks[P].HashMs = (nowMicros() - Start) / 1000.0;
      }

    std::vector<CompileOutcome> Outcomes;
    {
      ScopedSpan S(T, "service.compile_batch");
      Outcomes = Svc->compileBatch(Reqs);
    }

    for (size_t P = 0; P < Outcomes.size(); ++P) {
      const CompileOutcome &O = Outcomes[P];
      const std::string &Id = Reqs[P].Id;
      if (!O.Error.empty()) {
        Out.fail(Id + ": " + O.Error);
        continue;
      }
      std::string Key = O.resultKey();
      Rec.Signature[Id] = hashBytes(Key);
      Rec.Counts["core.remarks"] += O.summary().at("remarks").size();
      Rec.Counts["driver.passes_run"] += Clocks[P].PassesRun;

      auto Cold = ColdKeys.find(Id);
      if (Replay && Cold != ColdKeys.end()) {
        if (!O.CacheHit)
          Out.fail(Id + ": replayed request missed the cache");
        else if (Key != Cold->second)
          Out.fail(Id + ": cached result differs from the cold compile");
        continue;
      }
      if (O.CacheHit)
        Out.fail(Id + ": unexpected cache hit on a cold request");
      Expected<FuzzPresetOutcome> V = fuzzPresetOutcomeFromJSON(O.evaluation());
      if (!V)
        Out.fail(Id + ": unreadable verdict: " + V.message());
      else if (!V->OK)
        Out.fail(Id + ": " + V->Reason);
      if (Replay)
        ColdKeys[Id] = Key;
    }
    if (T.enabled()) {
      // The service's own share of the batch: hashing, lookup, store and
      // payload handling (VerifyEach stays with the compile). Taken from
      // the batch span rather than CompileOutcome::WallMillis, which reads
      // a different clock.
      double Overhead = T.value("service.compile_batch");
      for (const RequestClock &C : Clocks)
        Overhead -= C.EmitMs + C.EvalMs + C.CompileMs;
      T.add("service.overhead", Overhead);
      T.add("service.requests", (double)Outcomes.size());
      double Hits = 0.0;
      for (const CompileOutcome &O : Outcomes)
        Hits += O.CacheHit;
      T.add("service.cache_hits", Hits);
    }
    return Out;
  }

  /// Geomean over the campaign's recipes of Cycles(LLVM 12) / Cycles(full
  /// LLVM Dev): one untimed compile + launch per recipe and preset, since
  /// the oracle's verdicts do not expose simulated cycles.
  double modelSpeedup(JobOutcome &Out) override {
    std::vector<double> Ratios;
    for (const KernelRecipe &R : Recipes) {
      uint64_t Cycles[2] = {0, 0};
      for (int K = 0; K < 2; ++K) {
        const PipelineOptions &P = Presets[K == 0 ? BaselinePreset : DevPreset];
        IRContext Ctx;
        Module M(Ctx, "fuzz-model");
        std::string Kernel = emitFuzzKernel(M, R, P);
        CompileResult CR = optimizeDeviceModule(M, P);
        FuzzRunOutcome Run = runGeneratedKernel(M, Kernel, R, P);
        if (CR.VerifyFailed || !Run.Stats.ok() || !Run.Stats.Cycles)
          Out.fail(R.summary() + ": model run failed under " + P.Name);
        Cycles[K] = Run.Stats.Cycles;
      }
      if (Cycles[0] && Cycles[1])
        Ratios.push_back((double)Cycles[0] / (double)Cycles[1]);
    }
    return geomean(Ratios);
  }

private:
  /// Host times of one request, taken inside its callbacks.
  struct RequestClock {
    double EmitMs = 0.0, EmitEndUs = 0.0, EmitEndWallUs = 0.0, EvalMs = 0.0,
           CompileMs = 0.0, HashMs = 0.0;
    uint64_t PassesRun = 0;
  };

  void freshService() {
    CompileService::Options SO;
    SO.Workers = 1; // one client thread, memory tier only
    Svc = std::make_unique<CompileService>(SO);
  }

  /// One (recipe, preset) request, built as the bench/fuzz campaign does:
  /// VerifyEach and lint on, salt = recipe hash, Evaluate = the oracle's
  /// judgment of the compiled preset.
  CompileRequest makeRequest(const KernelRecipe &R, size_t P, Tracer &T) {
    const PipelineOptions &Preset = Presets[P];
    FuzzOracleOptions O;
    CompileRequest Q;
    Q.Id = "seed-" + std::to_string(R.Seed) + "/" + Preset.Name;
    Q.Pipeline = effectiveFuzzPipeline(Preset, O);
    Q.Pipeline.Instrument.TimePasses = TimePasses;
    Q.Salt = hashBytes(R.toJSON().str());
    Tracer *TP = &T;
    Q.Emit = [this, TP, R, Preset, P](Module &M) {
      double Start = TP->enabled() ? nowMicros() : 0.0;
      std::string Kernel;
      {
        ScopedSpan S(*TP, "frontend.emit");
        Kernel = emitFuzzKernel(M, R, Preset);
      }
      if (TP->enabled()) {
        Clocks[P].EmitEndUs = nowMicros();
        Clocks[P].EmitEndWallUs = wallMicros();
        Clocks[P].EmitMs = (Clocks[P].EmitEndUs - Start) / 1000.0;
      }
      return Kernel;
    };
    Q.Evaluate = [this, TP, R, Preset, P](Module &M, const CompileResult &CR,
                                          const std::string &Kernel) {
      RequestClock &C = Clocks[P];
      C.PassesRun = passesRun(CR);
      double Start = 0.0;
      if (TP->enabled()) {
        // Emit end -> Evaluate start is hash + lookup + compile; the hash
        // is timed separately on a copy, which leaves the compile.
        Start = nowMicros();
        double WindowWallUs = wallMicros() - C.EmitEndWallUs;
        TP->record("service.hash_lookup_compile", C.EmitEndUs, Start);
        C.CompileMs = (Start - C.EmitEndUs) / 1000.0 - C.HashMs;
        TP->add("driver.compile", C.CompileMs);
        addPassSplit(*TP, CR, C.CompileMs,
                     cpuPerWall(Start - C.EmitEndUs, WindowWallUs));
      }
      json::Value V;
      {
        ScopedSpan S(*TP, "fuzz.judge");
        V = fuzzPresetOutcomeToJSON(
            judgeCompiledPreset(R, Preset, M, Kernel, CR));
      }
      if (TP->enabled())
        C.EvalMs = (nowMicros() - Start) / 1000.0;
      return V;
    };
    Q.IsTransient = [](const json::Value &Evaluation) {
      return Evaluation.at("watchdog_timeout").asBool();
    };
    return Q;
  }

  static constexpr size_t RecipesPerCampaign = 40;
  std::vector<PipelineOptions> Presets;
  static constexpr size_t BaselinePreset = 0; // LLVM 12
  static constexpr size_t DevPreset = 2;      // full LLVM Dev
  std::vector<KernelRecipe> Recipes;
  bool Replay;
  bool TimePasses = false;
  std::unique_ptr<CompileService> Svc;
  std::map<std::string, std::string> ColdKeys;
  std::vector<RequestClock> Clocks;
};

//===----------------------------------------------------------------------===//
// cg: partitioned CG solves on device groups
//===----------------------------------------------------------------------===//

class CGWorkload final : public BenchWorkload {
public:
  explicit CGWorkload(uint64_t Seed) : Seed(Seed) {
    ArchSpec V100 = *lookupArch("v100");
    ArchSpec MI100 = *lookupArch("mi100");
    DeviceGroupSpec Hetero;
    Hetero.Name = "v100+mi100";
    Hetero.Devices = {V100, MI100};
    std::vector<DeviceGroupSpec> Groups = {homogeneousGroupSpec(V100, 1),
                                           homogeneousGroupSpec(V100, 2),
                                           homogeneousGroupSpec(V100, 4),
                                           Hetero};
    // The 1-device solve of each format comes first: it is the reference
    // every other device count must reproduce bit for bit.
    for (CGFormat F : {CGFormat::CRS, CGFormat::ELL})
      for (const DeviceGroupSpec &G : Groups)
        Jobs.push_back({F, G});
  }

  size_t size() const override { return Jobs.size(); }
  void setTimePasses(bool On) override { TimePasses = On; }
  void beginPass() override { Makespan.clear(); }

  JobOutcome runJob(size_t I, Tracer &T, PassRecord &Rec) override {
    JobOutcome Out;
    const Job &J = Jobs[I];
    std::string Label = std::string(cgFormatName(J.Fmt)) + "@" + J.Group.Name;
    CGOptions O = *cgMatrixShape("transfer");
    O.Rows = 128;
    O.MaxIters = 5;
    O.GridDim = 2;
    O.Group = J.Group;
    O.Pipeline = makeDevPipeline();
    O.Pipeline.Instrument.TimePasses = TimePasses;
    O.Fmt = J.Fmt;
    O.Seed = Seed;
    // Completion-order perturbation stays on in every run, with a fixed
    // seed: a seeded jitter would move the makespan, and so the simulated
    // speedup, by up to 15% from one benchmark seed to the next.
    O.PerturbSeed = 1;

    CGResult R;
    double SolveWallUs = T.enabled() ? wallMicros() : 0.0;
    {
      ScopedSpan S(T, "workloads.run_cg");
      R = runCG(O);
    }
    if (T.enabled())
      SolveWallUs = wallMicros() - SolveWallUs;
    if (!R.Trap.empty())
      Out.fail(Label + ": trap: " + R.Trap);
    else if (!madeProgress(R, O))
      Out.fail(Label + ": the solve did not reduce the residual");
    uint64_t Hash = R.resultHash();
    auto Ref = RefHash.find(J.Fmt);
    if (J.Group.size() == 1 && Ref == RefHash.end())
      RefHash[J.Fmt] = Hash;
    else if (Ref == RefHash.end() || Ref->second != Hash)
      Out.fail(Label + ": result differs from the 1-device solve");
    // The hash must also repeat in every pass and every process of the
    // run, so a result that drifts after the first pass is caught.
    Rec.Signature[Label + "/result_hash"] = Hash;

    const DeviceGroupStats &GS = R.Stats;
    uint64_t Launches = 0, KernelCycles = 0, Remarks = R.Remarks.size(),
             Passes = 0;
    for (const DeviceGroupStats::PerDevice &D : GS.Devices) {
      Launches += D.Launches;
      KernelCycles += D.KernelCycles;
    }
    double PassMs = 0.0;
    for (const CGResult::ArchCompile &C : R.Compiles) {
      Remarks += C.Compile.Remarks.size();
      Passes += passesRun(C.Compile);
      PassMs += C.Compile.TotalPassMillis;
    }
    std::pair<const char *, uint64_t> Counters[] = {
        {"gpusim.cycles", KernelCycles},
        {"gpusim.launches", Launches},
        {"gpusim.group.makespan_cycles", GS.MakespanCycles},
        {"gpusim.group.sync_points", GS.SyncPoints},
        {"gpusim.group.host_link_bytes", GS.HostLinkBytes},
        {"core.remarks", Remarks}};
    for (auto &[Name, V] : Counters) {
      Rec.Signature[Label + "/" + Name] = V;
      Rec.Counts[Name] += V;
    }
    if (Passes) {
      Rec.Signature[Label + "/passes_run"] = Passes;
      Rec.Counts["driver.passes_run"] += Passes;
    }
    Makespan[{J.Fmt, J.Group.Name}] = GS.MakespanCycles;

    if (T.enabled()) {
      // runCG compiles internally, so the compile is its passes' wall time
      // carried over to the benchmark clock at the solve's CPU/wall ratio.
      // The rest of the solve is launches and the host loop.
      double SolveMs = T.value("workloads.run_cg");
      double CpuPerWall = cpuPerWall(SolveMs * 1000.0, SolveWallUs);
      for (const CGResult::ArchCompile &C : R.Compiles)
        addPassSplit(T, C.Compile, -1.0, CpuPerWall);
      double CompileMs = PassMs * CpuPerWall;
      double LaunchMs = SolveMs - CompileMs;
      T.add("driver.compile", CompileMs);
      T.add("gpusim.launch", LaunchMs);
      T.add("gpusim.ms_per_launch", Launches ? LaunchMs / Launches : 0.0);
    }
    return Out;
  }

  /// Geomean over formats of 1-device / 4-device makespan cycles.
  void endPass(PassRecord &Rec) override {
    std::vector<double> Ratios;
    for (CGFormat F : {CGFormat::CRS, CGFormat::ELL})
      Ratios.push_back((double)Makespan[{F, "v100x1"}] /
                       (double)Makespan[{F, "v100x4"}]);
    Rec.SimSpeedup = geomean(Ratios);
  }

private:
  struct Job {
    CGFormat Fmt;
    DeviceGroupSpec Group;
  };

  /// An absolute check, independent of the 1-device reference: the solve
  /// ran its iterations, every residual and solution entry is finite, and
  /// the residual fell.
  static bool madeProgress(const CGResult &R, const CGOptions &O) {
    if ((R.Iterations != O.MaxIters && !R.Converged) ||
        R.Residuals.size() != R.Iterations || R.X.size() != O.Rows)
      return false;
    for (double V : R.Residuals)
      if (!std::isfinite(V))
        return false;
    for (double V : R.X)
      if (!std::isfinite(V))
        return false;
    return std::isfinite(R.InitialResidual) &&
           R.FinalResidual < R.InitialResidual;
  }

  uint64_t Seed;
  bool TimePasses = false;
  std::vector<Job> Jobs;
  std::map<CGFormat, uint64_t> RefHash;
  std::map<std::pair<CGFormat, std::string>, uint64_t> Makespan;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeWorkload(const std::string &Name,
                                                       uint64_t Seed) {
  if (Name == "ladder")
    return std::make_unique<LadderWorkload>(Seed);
  if (Name == "fuzz")
    return std::make_unique<FuzzWorkload>(Seed, /*Replay=*/false);
  if (Name == "replay")
    return std::make_unique<FuzzWorkload>(Seed, /*Replay=*/true);
  if (Name == "cg")
    return std::make_unique<CGWorkload>(Seed);
  return nullptr;
}
