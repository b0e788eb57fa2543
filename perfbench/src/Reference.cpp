//===- perfbench/Reference.cpp - Machine-speed reference work -------------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include "Trace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

using namespace perfbench;

namespace {

/// Keeps the work's results alive, so the compiler cannot drop the work.
volatile uint64_t Sink;

uint64_t next(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t mapWork() {
  std::map<uint64_t, uint64_t> M;
  uint64_t State = 11;
  for (uint64_t I = 0; I < 6000; ++I)
    M[next(State) & 0xfffff] = I;
  uint64_t Found = 0;
  State = 11;
  for (int I = 0; I < 6000; ++I)
    Found += M.count(next(State) & 0xfffff);
  return Found + M.size();
}

uint64_t sortWork() {
  std::vector<uint32_t> V(10000);
  uint64_t State = 3;
  for (uint32_t &X : V)
    X = (uint32_t)next(State);
  std::sort(V.begin(), V.end());
  return V[V.size() / 3];
}

struct Insn {
  uint8_t Op, A, B, C;
};

uint64_t interpreterWork() {
  uint64_t State = 7;
  std::vector<Insn> Prog(4096);
  for (Insn &I : Prog) {
    uint64_t R = next(State);
    I = {(uint8_t)(R % 7), (uint8_t)((R >> 8) & 63), (uint8_t)((R >> 16) & 63),
         (uint8_t)((R >> 24) & 63)};
  }
  std::vector<uint32_t> Mem(1 << 16);
  for (uint32_t &W : Mem)
    W = (uint32_t)next(State);
  uint32_t Reg[64];
  for (uint32_t I = 0; I < 64; ++I)
    Reg[I] = I * 2654435761u;
  size_t PC = 0;
  for (int Step = 0; Step < 60000; ++Step) {
    const Insn &I = Prog[PC];
    PC = (PC + 1) & 4095;
    switch (I.Op) {
    case 0: Reg[I.A] = Reg[I.B] + Reg[I.C]; break;
    case 1: Reg[I.A] = Reg[I.B] * Reg[I.C] + 1; break;
    case 2: Reg[I.A] = Reg[I.B] ^ (Reg[I.C] >> 3); break;
    case 3: Reg[I.A] = Mem[Reg[I.B] & 0xffff]; break;
    case 4: Mem[Reg[I.B] & 0xffff] = Reg[I.C]; break;
    case 5:
      if (Reg[I.A] & 1)
        PC = (PC + (Reg[I.B] & 7)) & 4095;
      break;
    default: Reg[I.A] = std::min(Reg[I.B], Reg[I.C]); break;
    }
  }
  return Reg[0] + Reg[5];
}

} // namespace

double perfbench::runReferenceWork() {
  double Start = nowMicros();
  // The map takes three quarters of the time. Its time follows the load of
  // other tenants most closely: timed apart from the rest between the jobs,
  // it slowed about as much as the workloads did, the sort and the
  // interpreter less.
  Sink = mapWork() + mapWork() + sortWork() + interpreterWork();
  return nowMicros() - Start;
}
