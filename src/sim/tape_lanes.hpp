// The lane executor of the compiled tape: the one fast engine every tape
// consumer runs on.
//
// A Lane_block advances up to kTapeLane samples through a tape together:
// one per-ISA kernel call runs every tape operation, each over all live
// lanes before the next starts. Its consumers are the frame engine
// (sim/exec_engine.cpp: row interiors in kTapeLane-wide chunks, and each
// row's boundary-resolved border columns as one more pass), the
// architecture simulator (sim/arch_sim.cpp: the cone origins of one region
// row) and the format search (estimate/format_search.cpp: sample windows,
// the double reference and every candidate format). Each binds a shared
// Lane_tape, built once per consumer by compact_lanes(), and one value
// domain:
//
//   - double: IEEE doubles, case-for-case identical to apply_op
//     (ir/eval.hpp) and therefore to the Register_program::run_trace_into
//     reference interpreter;
//   - std::int64_t: raw Qm.f words of one Fixed_format, case-for-case
//     identical to the run_fixed_raw reference interpreter
//     (sim/fixed_exec.hpp): wrap-around resize, truncating multiply shift,
//     VHDL '/' truncation toward zero, floor integer square root.
//
// The per-op bodies (tape_lanes_body.inc) are the one op-semantics source
// of the fast path in each domain. Each case is a single elementwise loop,
// so vectorization cannot reassociate or contract anything: results are
// bit-identical to the scalar oracles on every ISA. The bodies are compiled
// once per instruction-set level (baseline, AVX2, AVX-512 on x86-64) and
// resolved once per process against what the host supports; other hosts get
// the single baseline body.
//
// Lane layout: kTapeLane contiguous samples per lane slot; `n <= kTapeLane`
// samples are live in a pass. Constant lanes are pinned when the block is
// built (no op writes them), input lanes are written by the caller through
// lane(), and output lanes are read back through lane() after run().
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "backend/fixed_point.hpp"
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
    const Compiled_program* tape = nullptr;  // the SSA tape this compacts
    std::vector<Tape_op> ops;                // tape ops, dest/src remapped
    std::vector<std::int32_t> slot_of;       // tape slot -> lane slot
    int slot_count = 0;                      // lane slots one block needs
};

// Built once per consumer (an Exec_engine, a format search, an arch-sim
// level bind) and shared by all of its blocks; `tape` must outlive it. The
// Compiled_program itself stays SSA.
Lane_tape compact_lanes(const Compiled_program& tape);

// Run `count` consecutive tape operations over the first `n` lanes.
using Fixed_lane_fn = void (*)(const Tape_op* ops, std::size_t count,
                               std::int64_t* lanes, int n, const Bit_wrap& wrap,
                               int frac, std::int64_t fixed_one);
using Double_lane_fn = void (*)(const Tape_op* ops, std::size_t count, double* lanes,
                                int n);

// The resolved kernels for this host (widest supported ISA level); the
// resolution itself happens once per process.
Fixed_lane_fn fixed_lane_kernel();
Double_lane_fn double_lane_kernel();

// "avx512" / "avx2" / "default" — which clone the host resolved to, for
// bench and CI logs (cross-host ratio drift is diagnosable from the log).
const char* tape_lane_isa();

// IEEE doubles: constants bind at their literal values, inputs load as is.
struct Double_lane_domain {
    Double_lane_fn kernel = double_lane_kernel();

    double constant(double v) const { return v; }
    double load(double v) const { return v; }
    void run(const Tape_op* ops, std::size_t count, double* lanes, int n) const {
        kernel(ops, count, lanes, n);
    }
};

// Raw Qm.f words of one format: constants quantize with to_raw, inputs
// wrap-resize on load (VHDL resize of a wider bus), and the format-derived
// operator parameters are folded once.
struct Fixed_lane_domain {
    explicit Fixed_lane_domain(const Fixed_format& f)
        : format(f), wrap(f.total_bits()), one(to_raw(1.0, f)) {}

    Fixed_format format;
    Bit_wrap wrap;
    std::int64_t one;
    Fixed_lane_fn kernel = fixed_lane_kernel();

    std::int64_t constant(double v) const { return to_raw(v, format); }
    std::int64_t load(std::int64_t v) const { return wrap(v); }
    void run(const Tape_op* ops, std::size_t count, std::int64_t* lanes, int n) const {
        kernel(ops, count, lanes, n, wrap, format.frac_bits, one);
    }
};

// One lane block over a shared layout in one value domain (Value = double
// or std::int64_t). It owns only its kTapeLane x slot_count lanes, so
// concurrent workers each copy a block and share the layout. Copies are
// independent; the layout must outlive every block bound to it.
template <class Value>
class Lane_block {
    static_assert(std::is_same_v<Value, double> || std::is_same_v<Value, std::int64_t>,
                  "lane blocks run doubles or raw Qm.f words");

public:
    using Domain = std::conditional_t<std::is_same_v<Value, double>, Double_lane_domain,
                                      Fixed_lane_domain>;

    explicit Lane_block(const Lane_tape& layout)
        requires std::is_same_v<Value, double>
        : layout_(&layout) {
        pin_constants();
    }
    Lane_block(const Lane_tape& layout, const Fixed_format& format)
        requires std::is_same_v<Value, std::int64_t>
        : layout_(&layout), domain_(format) {
        pin_constants();
    }

    // Rebinds the block to another format, keeping its lanes: only the
    // constant lanes and the operator parameters change.
    void set_format(const Fixed_format& format)
        requires std::is_same_v<Value, std::int64_t>
    {
        domain_ = Fixed_lane_domain(format);
        pin_constants();
    }

    const Compiled_program& tape() const { return *layout_->tape; }

    // The kTapeLane lanes of one tape slot (an input, constant or output
    // slot of tape(); intermediates share lane slots).
    Value* lane(std::int32_t tape_slot) {
        return lanes_.data() +
               static_cast<std::size_t>(layout_->slot_of[tape_slot]) * kTapeLane;
    }
    const Value* lane(std::int32_t tape_slot) const {
        return lanes_.data() +
               static_cast<std::size_t>(layout_->slot_of[tape_slot]) * kTapeLane;
    }

    // An input word as the program loads it (wrapped in the fixed domain).
    Value load(Value v) const { return domain_.load(v); }

    // Copies `n` contiguous words into / out of one tape slot's lanes, as
    // they are (no load wrap). Out of line on purpose: where the copy is
    // expanded its size is unknown, so it is a library memcpy rather than
    // the inline string move a caller's bounded size would get, which
    // costs about twice as much per 512-byte lane.
    void copy_in(std::int32_t tape_slot, const Value* src, int n);
    void copy_out(std::int32_t tape_slot, Value* dst, int n) const;

    // Runs every tape operation over the first `n` lanes. `after_op(dest,
    // n)` sees each op's destination lanes right after the op ran (the
    // format search folds the dynamic range there).
    void run(int n) {
        domain_.run(layout_->ops.data(), layout_->ops.size(), lanes_.data(), n);
    }
    template <class After_op>
    void run(int n, After_op&& after_op) {
        for (const Tape_op& op : layout_->ops) {
            domain_.run(&op, 1, lanes_.data(), n);
            after_op(static_cast<const Value*>(
                         lanes_.data() + static_cast<std::size_t>(op.dest) * kTapeLane),
                     n);
        }
    }

    // Batch: evaluates `samples` input vectors, row-major [samples][tape
    // inputs] (each word loaded as the program loads it), into row-major
    // [samples][tape outputs], kTapeLane samples per pass. Byte-identical
    // to the domain's scalar oracle on every sample.
    void run_batch(const Value* inputs, std::size_t samples, Value* outputs);

private:
    void pin_constants();

    const Lane_tape* layout_;
    Domain domain_;
    std::vector<Value> lanes_;
};

extern template class Lane_block<double>;
extern template class Lane_block<std::int64_t>;

}  // namespace islhls
