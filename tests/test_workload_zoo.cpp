// Differential suite for the workload-zoo kernels (hotspot, fdtd,
// convection, conway): the compiled engine against the per-pixel reference
// interpreter across every boundary policy, tiled and untiled, at several
// thread counts; the integer-native conway kernel's raw-word identity
// between the fixed-point and double domains; and an end-to-end sweep with
// both DSE backends, format search and exact golden validation in both
// value domains.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/fixed_point.hpp"
#include "core/service.hpp"
#include "core/sweep.hpp"
#include "estimate/format_search.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/golden.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

const std::vector<std::string>& zoo_kernels() {
    static const std::vector<std::string> names = {"hotspot", "fdtd", "convection",
                                                   "conway"};
    return names;
}

const std::vector<Boundary>& all_boundaries() {
    static const std::vector<Boundary> boundaries = {
        Boundary::clamp, Boundary::zero, Boundary::mirror, Boundary::periodic};
    return boundaries;
}

// --- registry metadata: the zoo is wired through the standard registry ---------

TEST(Workload_zoo, kernels_are_registered_with_expected_metadata) {
    const std::vector<std::string> names = kernel_names();
    for (const std::string& name : zoo_kernels()) {
        SCOPED_TRACE(name);
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
    }
    EXPECT_EQ(kernel_by_name("fdtd").state_fields,
              (std::vector<std::string>{"ez", "hx", "hy"}));
    EXPECT_EQ(kernel_by_name("hotspot").const_fields, (std::vector<std::string>{"p"}));
    EXPECT_EQ(kernel_by_name("convection").const_fields,
              (std::vector<std::string>{"vx", "vy"}));
    EXPECT_FALSE(kernel_by_name("hotspot").integer_only);
    EXPECT_FALSE(kernel_by_name("fdtd").integer_only);
    EXPECT_FALSE(kernel_by_name("convection").integer_only);
    EXPECT_TRUE(kernel_by_name("conway").integer_only);
}

TEST(Workload_zoo, conway_step_is_integer_native) {
    EXPECT_TRUE(extract_stencil(kernel_by_name("conway").c_source).integer_native());
    EXPECT_FALSE(extract_stencil(kernel_by_name("hotspot").c_source).integer_native());
    EXPECT_FALSE(extract_stencil(kernel_by_name("life").c_source).integer_native());
}

TEST(Workload_zoo, convection_has_the_widest_footprint) {
    const Stencil_step step = extract_stencil(kernel_by_name("convection").c_source);
    EXPECT_EQ(step.max_reach(), 2);
}

// --- engine vs reference interpreter: every boundary x tiling x threads --------

class Zoo_differential : public ::testing::TestWithParam<std::string> {};

TEST_P(Zoo_differential, engine_matches_reference_across_schedules) {
    const Kernel_def& kernel = kernel_by_name(GetParam());
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame content = make_noise(23, 17, 0x200CAFE, 0.0, 255.0);
    const Frame_set initial = kernel.make_initial(content);
    const int iterations = 4;
    for (Boundary b : all_boundaries()) {
        SCOPED_TRACE(to_string(b));
        const Frame_set reference = run_ir_reference(step, initial, iterations, b);
        for (int tile : {1, 2}) {
            for (int threads : {1, 2, 8}) {
                SCOPED_TRACE(cat("tile=", tile, " threads=", threads));
                const Frame_set engine = run_ir(step, initial, iterations, b,
                                                Exec_options{threads, tile});
                for (const std::string& field : kernel.state_fields) {
                    EXPECT_EQ(max_abs_diff(engine.field(field),
                                           reference.field(field)), 0.0)
                        << field;
                }
            }
        }
    }
}

TEST_P(Zoo_differential, native_step_matches_ir_exactly) {
    const Kernel_def& kernel = kernel_by_name(GetParam());
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame content = make_synthetic_scene(19, 15, 77);
    Frame_set ir = kernel.make_initial(content);
    Frame_set native = ir;
    for (int i = 0; i < 3; ++i) {
        ir = run_step_ir(step, ir, kernel.boundary);
        native = kernel.native_step(native, kernel.boundary);
    }
    for (const std::string& field : kernel.state_fields) {
        EXPECT_EQ(max_abs_diff(ir.field(field), native.field(field)), 0.0) << field;
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, Zoo_differential, ::testing::ValuesIn(zoo_kernels()),
                         [](const auto& info) { return info.param; });

// --- conway: the fixed-point domain is the native one --------------------------

TEST(Workload_zoo, conway_fixed_raw_words_match_reference_everywhere) {
    const Kernel_def& kernel = kernel_by_name("conway");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame content = make_noise(21, 18, 0xC0117AE, 0.0, 255.0);
    const Frame_set initial = kernel.make_initial(content);
    const Fixed_format fmt{8, 0};  // Q8.0: whole numbers only
    const int iterations = 4;
    for (Boundary b : all_boundaries()) {
        SCOPED_TRACE(to_string(b));
        const Fixed_frame_result reference =
            run_ir_fixed_reference(step, initial, iterations, b, fmt);
        for (int tile : {1, 2}) {
            for (int threads : {1, 2, 8}) {
                SCOPED_TRACE(cat("tile=", tile, " threads=", threads));
                const Fixed_frame_result engine = run_ir(
                    step, initial, iterations, b, fmt, Exec_options{threads, tile});
                EXPECT_EQ(engine.raw, reference.raw);
            }
        }
    }
}

TEST(Workload_zoo, conway_fixed_point_reproduces_double_exactly) {
    // Every conway value (cells, neighbour counts, compare results) is an
    // exact small integer, so decoding the Q8.0 raw words must give the
    // double engine's frames bit for bit — the fixed domain loses nothing.
    const Kernel_def& kernel = kernel_by_name("conway");
    const Stencil_step step = extract_stencil(kernel.c_source);
    const Frame content = make_noise(24, 20, 0x5EED, 0.0, 255.0);
    const Frame_set initial = kernel.make_initial(content);
    const Fixed_format fmt{8, 0};
    for (int iterations : {1, 4}) {
        SCOPED_TRACE(iterations);
        const Frame_set doubles =
            run_ir(step, initial, iterations, kernel.boundary, 1);
        const Fixed_frame_result fixed =
            run_ir(step, initial, iterations, kernel.boundary, fmt);
        const Frame_set decoded = fixed.to_frame_set();
        EXPECT_EQ(max_abs_diff(decoded.field("u"), doubles.field("u")), 0.0);
    }
}

TEST(Workload_zoo, conway_format_search_lands_on_zero_fraction_bits) {
    // The integer-native flag starts the scan at Q m.0, which is already
    // exact — the accepted candidate keeps zero fraction bits and the
    // result models exactness explicitly (mse == 0, no PSNR involved).
    // Any further formats tried come from the integer-bit shrink phase,
    // which may only ever narrow below the range-derived floor.
    const Kernel_def& kernel = kernel_by_name("conway");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Frame_set content = kernel.make_initial(make_noise(24, 18, 3, 0.0, 255.0));
    Format_search_options options;
    options.target_psnr_db = 80.0;
    options.peak_value = 1.0;
    const Format_search_result r =
        search_fixed_format(cone, content, kernel.boundary, options);
    ASSERT_TRUE(r.satisfiable);
    EXPECT_EQ(r.format.frac_bits, 0);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.psnr_db, 0.0);
    EXPECT_GE(r.formats_tried, 1);
    EXPECT_LE(r.format.integer_bits, r.range_integer_bits);
}

// --- end-to-end: sweep with both backends, exact in both value domains ---------

TEST(Workload_zoo, sweep_validates_exactly_across_backends) {
    Sweep_config config;
    config.kernels = zoo_kernels();
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {4};
    config.frame_width = 320;
    config.frame_height = 240;
    config.space.iterations = 4;
    config.space.max_window = 3;
    config.space.max_depth = 2;
    config.space.threads = 2;
    config.backends = {"paper", "streaming"};
    config.with_pareto = true;
    config.validate = true;
    config.search_formats = true;
    config.validate_fixed = true;
    const Sweep_report report = Sweep_service{}.run(config);
    ASSERT_EQ(report.entries.size(), zoo_kernels().size() * 2);
    for (const Sweep_entry& entry : report.entries) {
        SCOPED_TRACE(cat(entry.kernel, " via ", entry.backend));
        EXPECT_TRUE(entry.fits);
        if (entry.backend != "paper") continue;
        // Double-domain golden: the fitted architecture must reproduce the
        // ghost golden bit for bit.
        EXPECT_TRUE(entry.validated);
        EXPECT_EQ(entry.validation_max_abs_err, 0.0);
        // The searched format must satisfy the target, and the fixed-domain
        // golden must agree word for word.
        EXPECT_TRUE(entry.format_searched);
        EXPECT_TRUE(entry.format_satisfiable);
        EXPECT_TRUE(entry.validated_fixed);
        EXPECT_EQ(entry.validation_max_raw_err, 0.0);
        if (entry.kernel == "conway") {
            EXPECT_EQ(entry.fixed_format.frac_bits, 0);
        }
    }
    // Both backends contributed Pareto points, so each combination has a
    // merged cross-backend front.
    EXPECT_EQ(report.merged_fronts.size(), zoo_kernels().size());
}

}  // namespace
}  // namespace islhls
