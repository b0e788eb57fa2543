//===- perfbench/Workloads.h - Benchmark workloads --------------*- C++ -*-===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads (ladder, fuzz, cg, replay). Each is a fixed
/// list of jobs that one client runs in order, one job at a time. A job
/// drives the repository's public entry points, checks every output it
/// produces, and reports the deterministic simulated-clock counts the
/// benchmark compares across passes.
///
//===----------------------------------------------------------------------===//

#ifndef OMPGPU_PERFBENCH_WORKLOADS_H
#define OMPGPU_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <map>
#include <memory>
#include <string>

namespace perfbench {

/// Deterministic observations of one pass over the job list.
struct PassRecord {
  /// Per-job values keyed "<job>/<counter>"; every pass of a run must
  /// produce the same map.
  std::map<std::string, uint64_t> Signature;
  /// Totals over the pass, reported as the per-layer counts.
  std::map<std::string, uint64_t> Counts;
  /// Simulated-clock speedup computed from this pass (ladder, cg); 0 when
  /// the workload computes it in modelSpeedup() instead.
  double SimSpeedup = 0.0;
};

/// Outcome of one job's output checks.
struct JobOutcome {
  bool OK = true;
  std::string Failure;

  void fail(const std::string &Why) {
    if (OK)
      Failure = Why;
    OK = false;
  }
};

class BenchWorkload {
public:
  virtual ~BenchWorkload();

  /// Jobs in one pass. The order is fixed for the run (set by the seed).
  virtual size_t size() const = 0;
  /// Smallest number of passes a timed phase runs, so that its job
  /// latencies have ten samples beyond the 90th percentile.
  unsigned minPasses() const { return (unsigned)((100 + size() - 1) / size()); }
  /// Switches the compile pipelines' pass timing (Instrument.TimePasses),
  /// which the traced phase needs for the per-pass split. It changes the
  /// pipeline fingerprint, so cached state keyed by it starts over.
  virtual void setTimePasses(bool On) = 0;
  virtual void beginPass() {}
  virtual JobOutcome runJob(size_t I, Tracer &T, PassRecord &P) = 0;
  virtual void endPass(PassRecord &) {}
  /// The simulated-clock speedup of workloads whose job loop does not
  /// observe simulated cycles (fuzz, replay): computed once, untimed.
  /// Returns 0 for workloads that compute it per pass.
  virtual double modelSpeedup(JobOutcome &) { return 0.0; }
};

/// Builds workload \p Name ("ladder", "fuzz", "cg", "replay") for \p Seed;
/// null for an unknown name.
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &Name,
                                            uint64_t Seed);

} // namespace perfbench

#endif // OMPGPU_PERFBENCH_WORKLOADS_H
