//===- perfbench/Trace.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer's
/// public functions. Spans live in memory and are written at exit as a
/// Chrome trace-event JSON file (opens in Perfetto / chrome://tracing).
/// Every span also feeds the per-job layer accumulators the traced run
/// reports: its duration under its own name, and its self time (duration
/// minus the time its child spans cover) under "<name>#self".
///
/// A disabled recorder reads no clock and stores nothing, so the untraced
/// run executes the same benchmark code with no tracing cost.
///
//===----------------------------------------------------------------------===//

#ifndef OMPGPU_PERFBENCH_TRACE_H
#define OMPGPU_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's clock: CPU time of the (single-threaded) process in
/// microseconds since it started. Unlike wall time it leaves out time the
/// process was not running, such as steal time of a virtual CPU, which
/// otherwise dominates the run-to-run noise on a shared machine. The
/// benchmark never sleeps or waits on I/O, so on an idle machine the two
/// clocks agree.
double nowMicros();

/// Wall-clock (steady_clock) microseconds. Used only to carry the
/// pipeline's own wall-clock pass times over to the benchmark clock:
/// a pass's CPU time is taken as its wall time times the CPU/wall ratio
/// of the span that encloses it.
double wallMicros();

class Tracer {
public:
  struct Span {
    const char *Name;
    double StartUs = 0.0;
    double EndUs = 0.0;
    double ChildUs = 0.0;
    int Parent = -1;
    uint64_t Job = 0;
  };

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Starts job \p Id: clears the per-job layer accumulators.
  void beginJob(uint64_t Id);
  /// Ends the current job and returns its layer values in milliseconds,
  /// keyed by span name (and "<name>#self") or by add() name.
  std::map<std::string, double> endJob();

  /// Opens a span under the innermost open span; returns its index.
  int open(const char *Name);
  /// Closes span \p Idx (the innermost open one) and returns its duration
  /// in milliseconds.
  double close(int Idx);
  /// Records an already-finished interval as a child of the innermost
  /// open span.
  void record(const char *Name, double StartUs, double EndUs);
  /// Adds \p Millis to the current job's accumulator \p Name.
  void add(const std::string &Name, double Millis);
  /// The current job's accumulated value of \p Name (0 when absent).
  double value(const std::string &Name) const;

  /// Writes every recorded span as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path) const;

private:
  void finish(Span &S);

  bool Enabled = false;
  uint64_t Job = 0;
  int Current = -1;
  std::vector<Span> Spans;
  std::map<std::string, double> JobValues;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name)
      : T(T), Idx(T.enabled() ? T.open(Name) : -1) {}
  ~ScopedSpan() {
    if (Idx >= 0)
      T.close(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Idx;
};

} // namespace perfbench

#endif // OMPGPU_PERFBENCH_TRACE_H
