#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "estimate/format_search.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/fixed_exec.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

// The pre-batching search, preserved verbatim as the reference the batched
// implementation must reproduce field for field: per-sample interpreter
// runs (run_fixed) inside the PSNR loop, the same window sampling, range
// analysis and bit-growth schedule.
Format_search_result search_fixed_format_reference(
    const Cone& cone, const Frame_set& content, Boundary boundary,
    const Format_search_options& options) {
    const Register_program& program = cone.program();
    const Stencil_step& step = cone.step();

    Prng rng(options.seed);
    std::vector<std::pair<int, int>> origins;
    for (int i = 0; i < options.sample_windows; ++i) {
        origins.push_back({rng.next_int(0, std::max(0, content.width() - 1)),
                           rng.next_int(0, std::max(0, content.height() - 1))});
    }

    std::vector<std::vector<double>> input_sets;
    std::vector<std::vector<double>> references;
    std::vector<double> trace;
    double max_abs = 0.0;
    for (const auto& [ox, oy] : origins) {
        std::vector<double> inputs;
        for (const auto& port : program.input_ports()) {
            const Frame& f = content.field(step.pool().field_name(port.field));
            inputs.push_back(f.sample(ox + port.dx, oy + port.dy, boundary));
        }
        program.run_trace_into(inputs, trace);
        for (double v : trace) max_abs = std::max(max_abs, std::fabs(v));
        std::vector<double> reference;
        for (const std::int32_t r : program.outputs()) {
            reference.push_back(trace[static_cast<std::size_t>(r)]);
        }
        references.push_back(std::move(reference));
        input_sets.push_back(std::move(inputs));
    }

    Format_search_result result;
    result.max_abs_value = max_abs;
    const int integer_bits =
        2 + static_cast<int>(std::ceil(std::log2(std::max(1.0, max_abs))));
    result.range_integer_bits = integer_bits;

    struct Accuracy {
        bool exact = false;
        double psnr_db = 0.0;
    };
    auto measure = [&](const Fixed_format& fmt) -> Accuracy {
        // The fold-order contract of the batched search: partial squared-
        // error sums over at most 16 fixed contiguous sample ranges, never
        // smaller than one lane block (a function of the sample count
        // alone), combined in range order.
        const std::size_t samples = input_sets.size();
        const std::size_t lane = static_cast<std::size_t>(Fixed_exec::kLane);
        const std::size_t jobs = std::max<std::size_t>(
            1, std::min<std::size_t>(16, (samples + lane - 1) / lane));
        double se = 0.0;
        long long count = 0;
        for (std::size_t j = 0; j < jobs; ++j) {
            const std::size_t s0 = j * samples / jobs;
            const std::size_t s1 = (j + 1) * samples / jobs;
            double partial = 0.0;
            for (std::size_t s = s0; s < s1; ++s) {
                const std::vector<double> fixed =
                    run_fixed(program, input_sets[s], fmt);
                for (std::size_t o = 0; o < fixed.size(); ++o) {
                    const double d = fixed[o] - references[s][o];
                    partial += d * d;
                    count += 1;
                }
            }
            se += partial;
        }
        const double mse = se / static_cast<double>(count);
        if (mse == 0.0) return {true, 0.0};
        return {false,
                10.0 * std::log10(options.peak_value * options.peak_value / mse)};
    };
    auto accepts = [&](const Accuracy& acc) {
        if (step.integer_native()) return acc.exact;
        return acc.exact || acc.psnr_db >= options.target_psnr_db;
    };
    // The reference shrink walks the per-sample raw interpreter (the batched
    // search compares its own batch buffers — byte-identical by the Fixed_exec
    // contract), accepting while every output word matches the accepted
    // format's.
    auto raw_outputs_of = [&](const Fixed_format& fmt) {
        const Raw_quantizer quantize(fmt);
        std::vector<std::int64_t> flat;
        std::vector<std::int64_t> raw;
        for (const std::vector<double>& inputs : input_sets) {
            raw.clear();
            for (double v : inputs) raw.push_back(quantize(v));
            for (std::int64_t word : run_fixed_raw(program, raw, fmt)) {
                flat.push_back(word);
            }
        }
        return flat;
    };
    auto shrink = [&]() {
        if (!options.shrink_integer_bits) return;
        const std::vector<std::int64_t> accepted = raw_outputs_of(result.format);
        const int frac = result.format.frac_bits;
        for (int m = result.format.integer_bits - 1; m >= 1 && m + frac >= 2; --m) {
            result.formats_tried += 1;
            if (raw_outputs_of(Fixed_format{m, frac}) != accepted) break;
            result.format.integer_bits = m;
        }
    };

    // Mirrors the production rule: integer-native programs start the
    // candidate ladder at zero fractional bits (Q m.0 is already exact).
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

void expect_same_result(const Format_search_result& a, const Format_search_result& b) {
    EXPECT_EQ(a.format, b.format);
    EXPECT_EQ(a.psnr_db, b.psnr_db);
    EXPECT_EQ(a.exact, b.exact);
    EXPECT_EQ(a.max_abs_value, b.max_abs_value);
    EXPECT_EQ(a.range_integer_bits, b.range_integer_bits);
    EXPECT_EQ(a.formats_tried, b.formats_tried);
    EXPECT_EQ(a.satisfiable, b.satisfiable);
}

class Format_search_fixture : public ::testing::Test {
protected:
    Format_search_fixture()
        : step(extract_stencil(kernel_by_name("igf").c_source)),
          cone(step, Cone_spec{3, 3, 2}) {
        content = Frame_set(32, 24);
        content.add_field("u", make_synthetic_scene(32, 24, 8));
    }
    Stencil_step step;
    Cone cone;
    Frame_set content;
};

TEST_F(Format_search_fixture, integer_bits_cover_the_dynamic_range) {
    const Format_search_result r =
        search_fixed_format(cone, content, Boundary::clamp);
    ASSERT_TRUE(r.satisfiable);
    // IGF intermediates reach data*16 before scaling: max_abs in the
    // thousands, so at least 13 integer bits (sign + magnitude + guard) in
    // the range-derived floor. The chosen format may sit below the floor
    // (shrink phase), never above it.
    EXPECT_GT(r.max_abs_value, 255.0);
    EXPECT_GE(r.range_integer_bits,
              2 + static_cast<int>(std::ceil(std::log2(r.max_abs_value))));
    EXPECT_LE(r.format.integer_bits, r.range_integer_bits);
    EXPECT_GE(r.format.integer_bits, 1);
    // The returned format really achieves the target.
    EXPECT_TRUE(r.exact || r.psnr_db >= 50.0);
}

TEST_F(Format_search_fixture, tighter_target_needs_more_fraction_bits) {
    Format_search_options relaxed;
    relaxed.target_psnr_db = 30.0;
    Format_search_options strict;
    strict.target_psnr_db = 95.0;
    const auto fmt_relaxed = search_fixed_format(cone, content, Boundary::clamp,
                                                 relaxed);
    const auto fmt_strict = search_fixed_format(cone, content, Boundary::clamp,
                                                strict);
    ASSERT_TRUE(fmt_relaxed.satisfiable);
    ASSERT_TRUE(fmt_strict.satisfiable);
    EXPECT_GT(fmt_strict.format.frac_bits, fmt_relaxed.format.frac_bits);
    EXPECT_LE(fmt_relaxed.format.total_bits(), fmt_strict.format.total_bits());
}

TEST_F(Format_search_fixture, unreachable_target_reports_unsatisfiable) {
    Format_search_options impossible;
    impossible.target_psnr_db = 300.0;  // beyond any fixed point within 32 bits
    impossible.max_total_bits = 20;
    const auto r = search_fixed_format(cone, content, Boundary::clamp, impossible);
    EXPECT_FALSE(r.satisfiable);
    EXPECT_GT(r.formats_tried, 1);
}

TEST(Format_search, boolean_kernel_needs_almost_no_fraction) {
    // Game of Life values are exactly 0/1: a couple of fraction bits give a
    // bit-exact result, so the search should stop immediately.
    Stencil_step step = extract_stencil(kernel_by_name("life").c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    Frame_set content(24, 24);
    content.add_field("u", make_checkerboard(24, 24, 1, 0.0, 1.0));
    Format_search_options options;
    options.target_psnr_db = 80.0;
    options.peak_value = 1.0;
    const auto r = search_fixed_format(cone, content, Boundary::zero, options);
    ASSERT_TRUE(r.satisfiable);
    EXPECT_LE(r.format.frac_bits, 2);
    EXPECT_LE(r.max_abs_value, 16.0);
}

TEST_F(Format_search_fixture, batched_search_identical_to_interpreter_reference) {
    // The batched tape search must return the exact result of the
    // per-sample interpreter search — format, PSNR, range, formats tried —
    // under targets that stop early, stop late, and fail entirely.
    for (double target : {30.0, 50.0, 95.0, 300.0}) {
        SCOPED_TRACE(target);
        Format_search_options options;
        options.target_psnr_db = target;
        if (target == 300.0) options.max_total_bits = 20;
        expect_same_result(
            search_fixed_format_reference(cone, content, Boundary::clamp, options),
            search_fixed_format(cone, content, Boundary::clamp, options));
    }
}

TEST_F(Format_search_fixture, result_is_thread_count_invariant) {
    // The partial-sum fold must be a function of the sample set alone:
    // 1/2/8 threads (and all-hardware 0) return the bit-identical
    // Format_search_result, for window counts below, at and well above the
    // fixed fold-job count (16) — including ranges that do not divide evenly.
    for (int sample_windows : {5, 16, 70, 131}) {
        SCOPED_TRACE(sample_windows);
        Format_search_options base;
        base.sample_windows = sample_windows;
        const Format_search_result serial =
            search_fixed_format(cone, content, Boundary::clamp, base);
        for (int threads : {2, 8, 0}) {
            SCOPED_TRACE(threads);
            Format_search_options options = base;
            options.threads = threads;
            expect_same_result(
                serial, search_fixed_format(cone, content, Boundary::clamp, options));
        }
    }
}

TEST(Format_search, batched_matches_reference_across_kernels) {
    // Sweep every built-in kernel (sqrt, divide, compare and select paths
    // included) at a mid target; the batched and reference searches must
    // agree exactly under each kernel's own boundary.
    for (const std::string& name : kernel_names()) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{2, 2, 1});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(21, 16, 42));
        Format_search_options options;
        options.target_psnr_db = 40.0;
        options.sample_windows = 24;
        expect_same_result(
            search_fixed_format_reference(cone, content, kernel.boundary, options),
            search_fixed_format(cone, content, kernel.boundary, options));
    }
}

TEST(Format_search, batched_matches_reference_on_deep_cones) {
    // The 2x2x1 cones above are too small for the lane layout to reuse many
    // slots; at (4x4, depth 3) every zoo kernel's tape has long-dead
    // intermediates whose lanes the compact layout hands to later ops.
    for (const std::string& name : kernel_names()) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{4, 4, 3});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(21, 16, 42));
        Format_search_options options;
        options.target_psnr_db = 40.0;
        options.sample_windows = 24;
        expect_same_result(
            search_fixed_format_reference(cone, content, kernel.boundary, options),
            search_fixed_format(cone, content, kernel.boundary, options));
    }
}

TEST(Format_search, batched_matches_reference_across_lane_block_splits) {
    // Deep cones at window counts below, at and just past one lane block
    // (64) and across two: the double pass and every candidate split into
    // full and partial blocks the same way. The frac ladder runs several
    // candidates here; the shrink walk (covered per kernel above) is off
    // because its verbatim-reference cost grows with every shrunk bit.
    for (const char* name : {"igf", "chambolle"}) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{9, 9, 5});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(40, 32, 5));
        for (int sample_windows : {1, 63, 64, 65, 131}) {
            SCOPED_TRACE(sample_windows);
            Format_search_options options;
            options.target_psnr_db = 45.0;
            options.shrink_integer_bits = false;
            options.sample_windows = sample_windows;
            expect_same_result(
                search_fixed_format_reference(cone, content, kernel.boundary, options),
                search_fixed_format(cone, content, kernel.boundary, options));
        }
    }
}

TEST(Format_search, non_finite_range_is_reported_unsatisfiable) {
    // Flat runs make the divisor u[x+1] - u[x-1] zero, so the double
    // reference divides by zero and the observed range is infinite. No
    // Qm.f format covers it: the search must say so without trying one.
    Stencil_step step = extract_stencil(
        "void k(float u_out[H][W], const float u[H][W]) {\n"
        "  for (int y = 0; y < H; y++)\n"
        "    for (int x = 0; x < W; x++)\n"
        "      u_out[y][x] = u[y][x] / (u[y][x+1] - u[y][x-1]);\n"
        "}\n");
    const Cone cone(step, Cone_spec{2, 2, 1});
    Frame_set content(16, 12);
    Frame& u = content.add_field("u", Frame(16, 12));
    for (int y = 0; y < 12; ++y) {
        for (int x = 0; x < 16; ++x) u.at(x, y) = (x / 4) * 10.0;
    }
    const Format_search_result r =
        search_fixed_format(cone, content, Boundary::clamp);
    EXPECT_FALSE(r.satisfiable);
    EXPECT_EQ(r.formats_tried, 0);
    EXPECT_TRUE(std::isinf(r.max_abs_value));
}

TEST(Format_search, chambolle_small_range_small_integer_bits) {
    // Dual fields live in [-1, 1]; with g scaled by 1/8 the intermediates
    // stay small, so the integer bits must be far below IGF's.
    Stencil_step step = extract_stencil(kernel_by_name("chambolle").c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Kernel_def& kernel = kernel_by_name("chambolle");
    const Frame_set content = kernel.make_initial(make_synthetic_scene(24, 24, 9));
    Format_search_options options;
    options.target_psnr_db = 45.0;
    const auto r = search_fixed_format(cone, content, kernel.boundary, options);
    ASSERT_TRUE(r.satisfiable);
    // The input registers hold g (up to 255), so a range floor of 10 integer
    // bits; still far below IGF's ~14 (whose intermediates reach data*16).
    EXPECT_LE(r.range_integer_bits, 10);
    EXPECT_LE(r.format.integer_bits, r.range_integer_bits);
}

TEST(Format_search, chambolle_shrink_drops_below_the_range_floor_and_stays_exact) {
    // The range analysis sees g up to 255 and fixes a 10-bit floor, but the
    // head bit is a guard that the observed computation never exercises: the
    // shrink phase must land strictly below the floor, and the shrunk format
    // must reproduce the unshrunk outputs word for word (same fraction bits,
    // no wrap fired — the search already proved it, this re-proves it with
    // the independent per-sample interpreter).
    Stencil_step step = extract_stencil(kernel_by_name("chambolle").c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Kernel_def& kernel = kernel_by_name("chambolle");
    const Frame_set content = kernel.make_initial(make_synthetic_scene(24, 24, 9));
    Format_search_options options;
    options.target_psnr_db = 45.0;
    options.shrink_integer_bits = false;
    const auto wide = search_fixed_format(cone, content, kernel.boundary, options);
    options.shrink_integer_bits = true;
    const auto shrunk = search_fixed_format(cone, content, kernel.boundary, options);
    ASSERT_TRUE(wide.satisfiable);
    ASSERT_TRUE(shrunk.satisfiable);
    // Shrink-off reproduces the classic two-phase result at the floor.
    EXPECT_EQ(wide.format.integer_bits, wide.range_integer_bits);
    // Shrink-on lands strictly below it, at the same fraction width and the
    // same achieved accuracy (the outputs did not change).
    EXPECT_LT(shrunk.format.integer_bits, shrunk.range_integer_bits);
    EXPECT_EQ(shrunk.range_integer_bits, wide.range_integer_bits);
    EXPECT_EQ(shrunk.format.frac_bits, wide.format.frac_bits);
    EXPECT_EQ(shrunk.psnr_db, wide.psnr_db);
    EXPECT_EQ(shrunk.exact, wide.exact);
    EXPECT_GT(shrunk.formats_tried, wide.formats_tried);

    // Independent word-for-word check across a fresh window sample.
    const Register_program& program = cone.program();
    const Raw_quantizer q_wide(wide.format);
    const Raw_quantizer q_shrunk(shrunk.format);
    Prng rng(7);
    for (int s = 0; s < 16; ++s) {
        const int ox = rng.next_int(0, content.width() - 1);
        const int oy = rng.next_int(0, content.height() - 1);
        std::vector<std::int64_t> raw_wide;
        std::vector<std::int64_t> raw_shrunk;
        for (const auto& port : program.input_ports()) {
            const Frame& f = content.field(step.pool().field_name(port.field));
            const double v = f.sample(ox + port.dx, oy + port.dy, kernel.boundary);
            raw_wide.push_back(q_wide(v));
            raw_shrunk.push_back(q_shrunk(v));
        }
        EXPECT_EQ(run_fixed_raw(program, raw_wide, wide.format),
                  run_fixed_raw(program, raw_shrunk, shrunk.format));
    }
}

}  // namespace
}  // namespace islhls
