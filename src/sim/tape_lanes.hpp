// Explicit SIMD lane kernels for the compiled tape.
//
// Every batched executor in the simulator family advances kTapeLane samples
// through one tape operation per call: the format-search batch executor
// (sim/fixed_exec.hpp), the lane-blocked fixed-point frame interior
// (sim/exec_engine.cpp) and the region-row-tiled architecture simulator
// (sim/arch_sim.cpp). This header is the one home of those per-op lane
// bodies, in both value domains:
//
//   - fixed_lane_kernel(): raw Qm.f words, case-for-case identical to
//     apply_op_fixed (ir/compiled.hpp) and therefore to the run_fixed_raw
//     reference interpreter;
//   - double_lane_kernel(): IEEE doubles, case-for-case identical to
//     apply_op (ir/eval.hpp). Each case is a single elementwise operation,
//     so vectorization cannot reassociate or contract anything — results
//     are bit-identical to the scalar path on every ISA.
//
// The bodies are compiled once per instruction-set level (baseline,
// AVX2, AVX-512 on x86-64) and resolved once per process against what the
// host actually supports — explicit, portable SIMD instead of hoping the
// baseline auto-vectorizer covers 64-bit integer arithmetic (it does not:
// plain x86-64 has no vector 64-bit multiply or arithmetic right shift,
// which is exactly where the fixed-point interior used to trail the double
// engine). Non-x86 hosts transparently get the single baseline body.
//
// Lane layout: `lanes` holds kTapeLane contiguous samples per slot,
// indexed lanes[slot * kTapeLane + lane]; `n <= kTapeLane` samples are
// live. Constants and inputs are bound by the caller; one call executes one
// operation over the live lanes. Lane consumers do not run the SSA tape
// (one slot per instruction) directly: they run its compact_lanes() layout,
// whose slot count follows the number of values live at once.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/compiled.hpp"

namespace islhls {

inline constexpr int kTapeLane = 64;

// A compiled tape with its op destinations reassigned by linear-scan
// liveness, so one lane block spans the program's live values instead of
// every instruction: a cone tape of thousands of SSA slots needs a few
// hundred lane slots, and the block stays in L2 while every op runs.
// Constants, inputs and outputs keep dedicated slots (bound once, read
// back after the ops); every other op writes a slot freed by the last
// reader of an earlier value. A destination never shares a slot with its
// own operands, so the kernels' restrict-qualified destination holds.
struct Lane_tape {
    std::vector<Tape_op> ops;           // tape ops, dest/src remapped
    std::vector<std::int32_t> slot_of;  // tape slot -> lane slot
    int slot_count = 0;                 // lane slots one block needs
};

// Built per consumer and dropped with it (a format search, an arch-sim
// level bind); the Compiled_program itself stays SSA.
Lane_tape compact_lanes(const Compiled_program& tape);

using Fixed_lane_fn = void (*)(const Tape_op& op, std::int64_t* lanes, int n,
                               const Bit_wrap& wrap, int frac,
                               std::int64_t fixed_one);
using Double_lane_fn = void (*)(const Tape_op& op, double* lanes, int n);

// The resolved kernels for this host (widest supported ISA level). Hot
// loops hoist the pointer once and call it per (operation, lane block);
// the resolution itself happens once per process.
Fixed_lane_fn fixed_lane_kernel();
Double_lane_fn double_lane_kernel();

// "avx512" / "avx2" / "default" — which clone the host resolved to, for
// bench and CI logs (cross-host ratio drift is diagnosable from the log).
const char* tape_lane_isa();

}  // namespace islhls
