// Automatic fixed-point format selection.
//
// The paper fixes the hardware number format by hand; this extension picks
// the narrowest Qm.f automatically for a given accuracy target:
//   1. run the cone in double over sample windows, recording the dynamic
//      range of every intermediate register — that fixes the integer bits
//      (plus one guard bit against rounding growth);
//   2. grow the fraction bits until the bit-accurate fixed-point execution
//      reaches the requested PSNR against the double reference (or matches
//      it exactly — exactness is modelled as an explicit flag, never as a
//      sentinel decibel value; integer-native kernels accept on exactness
//      alone and skip PSNR pruning entirely);
//   3. shrink the integer bits back below the range-derived floor while the
//      raw fixed-point outputs stay byte-identical to the accepted format —
//      kernels whose intermediates stay tiny (chambolle's duals) drop below
//      the conservative sign+magnitude+guard estimate for free, because a
//      narrower wrap that never fires cannot change a single output word.
// Narrower formats mean cheaper operators everywhere in the cost model, so
// this directly trades accuracy against area.
//
// The search runs at lane speed on ONE lane layout: the cone's compiled tape
// compacted by liveness (compact_lanes, sim/tape_lanes.hpp) is built once per
// search and dropped with it — never stored on the cone or its program, and
// never rebuilt per candidate. Every pass is a Lane_block over that layout:
//   - The double reference is one pass per kTapeLane block of sample windows
//     (each input port's frame resolved once per search): it gathers the
//     flat inputs, reads the reference outputs and folds the dynamic range
//     over every input, constant and op destination as each op runs (the
//     block's per-op hook; an exact maximum with NaN ignored, so
//     order-independent). A non-finite range (a division by zero in double)
//     is reported unsatisfiable without trying a candidate.
//   - Every candidate format, in the frac ladder and the shrink phase, runs
//     in ONE batched pass over all sample windows through the fixed-domain
//     block: inputs are quantized into a flat raw buffer and advance
//     kTapeLane samples per tape operation through per-job blocks that are
//     rebound to each candidate format (keeping their lanes), optionally
//     fanned across a thread pool — no per-sample interpreter run, no
//     per-sample allocation.
// The PSNR fold rides inside the same jobs: every job accumulates the
// squared error of its own fixed sample range (the decomposition depends
// only on the sample count, never the thread count) and the partials
// combine in range order after the join, so the selected format, achieved
// PSNR and formats_tried are bit-identical at any thread count.
#pragma once

#include "backend/fixed_point.hpp"
#include "cone/cone.hpp"
#include "grid/frame_set.hpp"

namespace islhls {

struct Format_search_options {
    double target_psnr_db = 50.0;  // accuracy target vs the double reference
    double peak_value = 255.0;     // PSNR peak (data range)
    int sample_windows = 32;       // evaluation positions per frame
    int max_total_bits = 32;       // do not search beyond this width
    std::uint64_t seed = 99;       // window sampling
    // Sample-window fan-out per candidate format (support/parallel.hpp
    // semantics: 0 = all hardware threads). The result is byte-identical at
    // any thread count.
    int threads = 1;
    // Phase-3 integer-bit shrink below the range-derived floor (raw outputs
    // must stay byte-identical per shrunk candidate). Off reproduces the
    // plain two-phase search.
    bool shrink_integer_bits = true;
};

struct Format_search_result {
    Fixed_format format;       // the chosen (narrowest passing) format
    // Achieved accuracy at that format. Meaningless (0.0) when `exact` —
    // an exact match has no finite PSNR and is reported via the flag, not a
    // sentinel decibel value.
    double psnr_db = 0.0;
    // The fixed-point outputs reproduce the double reference bit-for-bit at
    // the chosen format (mse == 0 over every sample window).
    bool exact = false;
    double max_abs_value = 0.0;  // observed intermediate dynamic range
    // Range-derived integer-bit floor (sign + magnitude + guard) before the
    // shrink phase; format.integer_bits <= range_integer_bits always, and
    // strictly less when the shrink phase fired.
    int range_integer_bits = 0;
    int formats_tried = 0;     // counts shrink candidates too
    // false when max_total_bits is insufficient, or when the observed range
    // is not finite (no candidate is tried then: formats_tried == 0).
    bool satisfiable = true;
};

// Searches the format for `cone` with inputs drawn from `content` (boundary
// policy applied at the frame border).
Format_search_result search_fixed_format(const Cone& cone, const Frame_set& content,
                                         Boundary boundary,
                                         const Format_search_options& options = {});

}  // namespace islhls
