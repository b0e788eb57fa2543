//===- perfbench/Reference.h - Machine-speed reference work -----*- C++ -*-===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of benchmark-owned work that measures how fast the machine
/// runs at the moment. It is the same on every commit: it calls nothing in
/// the repository, so a change to the program under test cannot change its
/// time, only the machine can. The runner interleaves it with the jobs and
/// the metrics divide every host time by its median, which takes out the
/// drift of a shared host's speed that the workloads share with it.
///
/// The work mixes what the workloads spend their time on: an ordered map
/// built and probed (allocation and pointer chasing, as in the compiler and
/// in gpusim's per-instruction lookups), a sort (data-dependent branches),
/// and a switch-dispatched interpreter over a 256 KiB memory.
///
//===----------------------------------------------------------------------===//

#ifndef OMPGPU_PERFBENCH_REFERENCE_H
#define OMPGPU_PERFBENCH_REFERENCE_H

namespace perfbench {

/// Runs the reference work once; returns its time on the benchmark clock
/// (nowMicros) in microseconds.
double runReferenceWork();

} // namespace perfbench

#endif // OMPGPU_PERFBENCH_REFERENCE_H
