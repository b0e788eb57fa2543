//===- perfbench/Trace.cpp - In-memory span recorder ----------------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <ctime>

using namespace perfbench;

double perfbench::nowMicros() {
  struct timespec TS = {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return (double)TS.tv_sec * 1e6 + (double)TS.tv_nsec / 1e3;
}

double perfbench::wallMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::beginJob(uint64_t Id) {
  Job = Id;
  JobValues.clear();
}

std::map<std::string, double> Tracer::endJob() {
  assert(Current == -1 && "job ended with an open span");
  return std::move(JobValues);
}

int Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Current;
  S.Job = Job;
  S.StartUs = nowMicros();
  Spans.push_back(S);
  Current = (int)Spans.size() - 1;
  return Current;
}

double Tracer::close(int Idx) {
  assert(Idx == Current && "spans must close innermost first");
  Span &S = Spans[Idx];
  S.EndUs = nowMicros();
  Current = S.Parent;
  finish(S);
  return (S.EndUs - S.StartUs) / 1000.0;
}

void Tracer::record(const char *Name, double StartUs, double EndUs) {
  Span S;
  S.Name = Name;
  S.Parent = Current;
  S.Job = Job;
  S.StartUs = StartUs;
  S.EndUs = EndUs;
  Spans.push_back(S);
  finish(Spans.back());
}

void Tracer::finish(Span &S) {
  double Dur = S.EndUs - S.StartUs;
  if (S.Parent >= 0)
    Spans[S.Parent].ChildUs += Dur;
  JobValues[S.Name] += Dur / 1000.0;
  JobValues[std::string(S.Name) + "#self"] += (Dur - S.ChildUs) / 1000.0;
}

void Tracer::add(const std::string &Name, double Millis) {
  JobValues[Name] += Millis;
}

double Tracer::value(const std::string &Name) const {
  auto It = JobValues.find(Name);
  return It == JobValues.end() ? 0.0 : It->second;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"job\":%llu}}",
                 I ? "," : "", Name.c_str(), Cat.c_str(), S.StartUs,
                 S.EndUs - S.StartUs, I, S.Parent,
                 (unsigned long long)S.Job);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
