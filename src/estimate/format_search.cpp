#include "estimate/format_search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "sim/tape_lanes.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/prng.hpp"

namespace islhls {

Format_search_result search_fixed_format(const Cone& cone, const Frame_set& content,
                                         Boundary boundary,
                                         const Format_search_options& options) {
    check_internal(options.sample_windows >= 1, "need at least one sample window");
    const Register_program& program = cone.program();
    const Stencil_step& step = cone.step();

    // Sample window origins across the frame.
    Prng rng(options.seed);
    std::vector<std::pair<int, int>> origins;
    for (int i = 0; i < options.sample_windows; ++i) {
        origins.push_back({rng.next_int(0, std::max(0, content.width() - 1)),
                           rng.next_int(0, std::max(0, content.height() - 1))});
    }

    // One lane layout for the whole search: the double pass below and every
    // candidate format run the same liveness-compacted tape, so a lane block
    // spans the program's live values rather than one slot per instruction.
    const Compiled_program& tape = program.compiled();
    const Lane_tape layout = compact_lanes(tape);
    const std::vector<Tape_input>& ports = tape.inputs();
    const std::vector<std::int32_t>& out_slots = tape.output_slots();
    const std::size_t samples = origins.size();
    const std::size_t in_count = ports.size();
    const std::size_t out_count = out_slots.size();
    const std::size_t lane = static_cast<std::size_t>(kTapeLane);

    // Each port's frame, resolved once rather than per sample. Reads inside
    // the frame index it directly; only border reads go through the
    // boundary policy.
    std::vector<const Frame*> port_frame(in_count);
    for (std::size_t p = 0; p < in_count; ++p) {
        port_frame[p] = &content.field(step.pool().field_name(ports[p].field));
    }
    auto sample = [boundary](const Frame& f, int x, int y) {
        if (x >= 0 && x < f.width() && y >= 0 && y < f.height()) {
            return f.data()[static_cast<std::size_t>(y) *
                                static_cast<std::size_t>(f.width()) +
                            static_cast<std::size_t>(x)];
        }
        return f.sample(x, y, boundary);
    };

    // The double reference: one pass of the layout per lane block gathers
    // the flat inputs (row-major samples x ports) the candidates quantize,
    // reads the reference outputs, and folds the dynamic range of every
    // value the program computes — inputs, constants and each op's
    // destination lanes as the op runs. The fold is an exact maximum of
    // |v| with NaN ignored (std::max keeps its first argument against NaN),
    // so the fold order cannot change the result.
    std::vector<double> flat_inputs(samples * in_count);
    std::vector<double> references(samples * out_count);
    Lane_block<double> reference(layout);
    std::array<double, kTapeLane> peak{};
    auto fold = [&](const double* values, int n) {
        for (int l = 0; l < n; ++l) peak[l] = std::max(peak[l], std::fabs(values[l]));
    };
    for (const Tape_constant& c : tape.constants()) fold(reference.lane(c.slot), 1);
    for (std::size_t s0 = 0; s0 < samples; s0 += lane) {
        const int n = static_cast<int>(std::min(lane, samples - s0));
        for (std::size_t p = 0; p < in_count; ++p) {
            const Tape_input& port = ports[p];
            double* dst = reference.lane(port.slot);
            for (int l = 0; l < n; ++l) {
                const auto [ox, oy] = origins[s0 + static_cast<std::size_t>(l)];
                dst[l] = sample(*port_frame[p], ox + port.dx, oy + port.dy);
                flat_inputs[(s0 + static_cast<std::size_t>(l)) * in_count + p] = dst[l];
            }
            fold(dst, n);
        }
        reference.run(n, fold);
        for (std::size_t o = 0; o < out_count; ++o) {
            const double* src = reference.lane(out_slots[o]);
            for (int l = 0; l < n; ++l) {
                references[(s0 + static_cast<std::size_t>(l)) * out_count + o] = src[l];
            }
        }
    }
    double max_abs = 0.0;
    for (double v : peak) max_abs = std::max(max_abs, v);

    Format_search_result result;
    result.max_abs_value = max_abs;
    // A division by zero (or an overflow) in the double reference leaves an
    // infinite range that no Qm.f format covers: report the cell as
    // unsatisfiable without trying a candidate.
    if (!std::isfinite(max_abs)) {
        result.satisfiable = false;
        return result;
    }
    // Integer bits: sign + magnitude + one guard bit for rounding growth.
    // This is a conservative floor — phase 3 below may shrink under it when
    // the observed computation never exercises the head bits.
    const int integer_bits =
        2 + static_cast<int>(std::ceil(std::log2(std::max(1.0, max_abs))));
    result.range_integer_bits = integer_bits;

    // One batched lane pass per candidate format: quantize the flat inputs,
    // run every sample window through the fixed lane block, and fold the
    // squared error inside the SAME jobs that ran the batch. The job
    // decomposition is a function of the sample count alone (at most
    // kFoldJobs ranges, never smaller than one kTapeLane block so the lane
    // passes stay full), each job accumulates its partial sum over its
    // samples in sample order, and the partials combine in range order after
    // the join — so the PSNR is bit-identical at any thread count. The pool
    // is built once for the whole search.
    constexpr std::size_t kFoldJobs = 16;
    const std::size_t jobs = std::max<std::size_t>(
        1, std::min(kFoldJobs, (samples + lane - 1) / lane));
    const int threads = resolve_thread_count(options.threads);
    std::optional<Thread_pool> pool;
    if (threads > 1 && jobs > 1) pool.emplace(threads);
    // Per-job lane blocks over the one layout are only needed when jobs
    // really run concurrently; a serial pass keeps ONE cache-hot block
    // across all ranges. Blocks are built at the first candidate and
    // rebound to each later one, keeping their lanes; lane contents never
    // influence results.
    std::vector<Lane_block<std::int64_t>> blocks;
    std::vector<double> partial_se(jobs, 0.0);
    std::vector<std::int64_t> raw_inputs(samples * in_count);
    std::vector<std::int64_t> raw_outputs(samples * out_count);

    // Accuracy of one candidate: either exact (mse == 0, no finite PSNR) or
    // a real decibel number — never a sentinel. `raw_outputs` holds the
    // candidate's output words after the call, which is what the shrink
    // phase compares against.
    struct Accuracy {
        bool exact = false;
        double psnr_db = 0.0;
    };
    auto measure = [&](const Fixed_format& fmt) -> Accuracy {
        if (blocks.empty()) {
            blocks.assign(pool ? jobs : 1, Lane_block<std::int64_t>(layout, fmt));
        } else {
            for (Lane_block<std::int64_t>& block : blocks) block.set_format(fmt);
        }
        const Raw_quantizer quantize(fmt);
        auto run_range = [&](std::size_t j) {
            const std::size_t s0 = j * samples / jobs;
            const std::size_t s1 = (j + 1) * samples / jobs;
            for (std::size_t k = s0 * in_count; k < s1 * in_count; ++k) {
                raw_inputs[k] = quantize(flat_inputs[k]);
            }
            blocks[pool ? j : 0].run_batch(raw_inputs.data() + s0 * in_count, s1 - s0,
                                           raw_outputs.data() + s0 * out_count);
            double se = 0.0;
            for (std::size_t k = s0 * out_count; k < s1 * out_count; ++k) {
                const double d = from_raw(raw_outputs[k], fmt) - references[k];
                se += d * d;
            }
            partial_se[j] = se;
        };
        if (pool) {
            pool->for_each_index(jobs, run_range);
        } else {
            for (std::size_t j = 0; j < jobs; ++j) run_range(j);
        }
        double se = 0.0;
        for (std::size_t j = 0; j < jobs; ++j) se += partial_se[j];
        const double mse = se / static_cast<double>(samples * out_count);
        if (mse == 0.0) return {true, 0.0};
        return {false,
                10.0 * std::log10(options.peak_value * options.peak_value / mse)};
    };
    // Integer-native programs compute exact whole numbers: a near-miss PSNR
    // is as wrong as a distant one, so they accept on exactness alone.
    auto accepts = [&](const Accuracy& acc) {
        if (step.integer_native()) return acc.exact;
        return acc.exact || acc.psnr_db >= options.target_psnr_db;
    };

    // Phase 3: walk the integer bits down below the range-derived floor
    // while every output word of the batch stays byte-identical to the
    // accepted format (same fraction bits, so the raw words are directly
    // comparable; a wrap or input saturation that fires shows up as a
    // differing word and stops the walk).
    auto shrink = [&]() {
        if (!options.shrink_integer_bits) return;
        const std::vector<std::int64_t> accepted = raw_outputs;
        const int frac = result.format.frac_bits;
        for (int m = result.format.integer_bits - 1; m >= 1 && m + frac >= 2; --m) {
            result.formats_tried += 1;
            measure(Fixed_format{m, frac});
            if (raw_outputs != accepted) break;
            result.format.integer_bits = m;
        }
    };

    // Integer-native programs start the candidate ladder at zero fractional
    // bits — a Q m.0 format already reproduces the whole-number reference.
    const int first_frac = step.integer_native() ? 0 : 1;
    for (int frac = first_frac; integer_bits + frac <= options.max_total_bits; ++frac) {
        const Fixed_format fmt{integer_bits, frac};
        result.formats_tried += 1;
        const Accuracy acc = measure(fmt);
        result.format = fmt;
        result.psnr_db = acc.psnr_db;
        result.exact = acc.exact;
        if (accepts(acc)) {
            shrink();
            return result;
        }
    }
    result.satisfiable = false;
    return result;
}

}  // namespace islhls
