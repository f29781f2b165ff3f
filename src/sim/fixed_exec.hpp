// Bit-accurate fixed-point execution of register programs.
//
// Mirrors the generated VHDL operator for operator (wrap-around resize,
// truncating multiply shift, VHDL '/' truncation toward zero, floor integer
// square root), so an expected-output vector computed here is exactly what
// the emitted entity produces — the self-checking testbenches rely on it.
//
// Three execution styles share the same integer semantics (apply_op_fixed
// in ir/compiled.hpp):
//
//   - run_fixed_raw / run_fixed interpret the instruction vector one sample
//     at a time, allocating a fresh register file per call. Kept as the
//     scalar reference the compiled paths are validated against
//     byte-for-byte; not a production path.
//   - Fixed_exec (here) executes the integer-lowered tape (Fixed_tape)
//     structure-of-arrays over sample lanes: many samples advance through
//     each tape operation in one tight loop over a reusable lane buffer, so
//     evaluating thousands of sample windows (the fixed-point format search)
//     performs no per-sample allocation and amortizes the per-operation
//     dispatch across a whole lane block. It runs the liveness-compacted
//     lane layout of the tape (compact_lanes, sim/tape_lanes.hpp), which the
//     caller builds once and shares across every format it tries.
//   - Exec_engine::run_fixed (sim/exec_engine.hpp) executes the same tape
//     structure-of-arrays over whole frame ROWS — the frame-scale twin of
//     Fixed_exec, memcmp-identical to a per-pixel run_fixed_raw sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/fixed_point.hpp"
#include "ir/compiled.hpp"
#include "ir/program.hpp"
#include "sim/tape_lanes.hpp"

namespace islhls {

// Runs the program on raw two's-complement words (already in Qm.f).
std::vector<std::int64_t> run_fixed_raw(const Register_program& program,
                                        const std::vector<std::int64_t>& inputs,
                                        const Fixed_format& fmt);

// Convenience: quantizes `inputs`, runs, returns real-valued outputs.
std::vector<double> run_fixed(const Register_program& program,
                              const std::vector<double>& inputs,
                              const Fixed_format& fmt);

// Allocation-free batched executor over the integer-lowered tape. One
// instance binds a program and its lane layout to one Qm.f format; the
// caller provides a Scratch that is reused across any number of batches
// (and across executors of the same program — it is resized on first use).
class Fixed_exec {
public:
    // Samples evaluated per tape pass: each tape operation becomes one loop
    // of kLane integer operations over contiguous lanes, which is the form
    // the compiler auto-vectorizes. A block holds kLane words per LANE
    // slot of the compact layout, not per instruction: over the zoo's 585
    // format-search cones that is 304 slots (~152 KB, within a typical L2)
    // on average against 3411 SSA slots (~1.7 MB) — one slot per
    // instruction would not stay cache-resident for cone-sized programs.
    static constexpr int kLane = 64;

    // `program` and `layout` (compact_lanes(program.compiled())) must
    // outlive the executor.
    Fixed_exec(const Register_program& program, const Lane_tape& layout,
               const Fixed_format& format);

    // Reusable per-thread scratch: kLane samples per lane slot. It grows on
    // first use and is never shrunk, so a thread evaluating many batches
    // allocates once.
    struct Scratch {
        std::vector<std::int64_t> lanes;
    };

    // Batch: evaluates `samples` input vectors, row-major
    // [samples][program inputs] raw words, into row-major
    // [samples][program outputs] raw outputs, kLane samples per tape pass.
    // Byte-identical to run_fixed_raw on every sample.
    void run_raw_batch(const std::int64_t* inputs, std::size_t samples,
                       std::int64_t* outputs, Scratch& scratch) const;

private:
    const Lane_tape* layout_;
    Fixed_tape fixed_;
};

}  // namespace islhls
