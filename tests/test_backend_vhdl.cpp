// VHDL emitter: structural invariants checked by parsing the emitted text
// (no VHDL simulator is assumed in the environment; the testbench expected
// values come from the bit-accurate fixed-point executor).
#include <gtest/gtest.h>

#include "backend/vhdl.hpp"
#include "ir/analysis.hpp"
#include "kernels/kernels.hpp"
#include "sim/fixed_exec.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

class Vhdl_fixture : public ::testing::Test {
protected:
    Stencil_step step = extract_stencil(kernel_by_name("igf").c_source);
};

TEST_F(Vhdl_fixture, entity_name_encodes_spec) {
    EXPECT_EQ(cone_entity_name("igf", Cone_spec{4, 4, 2}), "islhls_igf_w4x4_d2");
    Vhdl_options options;
    options.entity_prefix = "acme";
    EXPECT_EQ(cone_entity_name("igf", Cone_spec{1, 1, 1}, options), "acme_igf_w1x1_d1");
}

TEST_F(Vhdl_fixture, register_assignments_equal_register_count) {
    const Cone cone(step, Cone_spec{3, 3, 2});
    const std::string vhdl = emit_cone(cone, "igf");
    const Vhdl_structure s = analyze_vhdl(vhdl);
    EXPECT_EQ(s.register_assignments, cone.program().register_count());
}

TEST_F(Vhdl_fixture, port_widths_match_program) {
    Vhdl_options options;
    const int bits = options.format.total_bits();
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Vhdl_structure s = analyze_vhdl(emit_cone(cone, "igf", options));
    EXPECT_EQ(s.input_bits, cone.program().input_count() * bits);
    EXPECT_EQ(s.output_bits, static_cast<int>(cone.program().outputs().size()) * bits);
}

TEST_F(Vhdl_fixture, div_and_sqrt_instances_match_census) {
    Stencil_step chamb = extract_stencil(kernel_by_name("chambolle").c_source);
    const Cone cone(chamb, Cone_spec{2, 2, 1});
    const std::string vhdl = emit_cone(cone, "chambolle");
    const Vhdl_structure s = analyze_vhdl(vhdl);
    const Op_census& census = cone.stats().census;
    EXPECT_EQ(s.divider_instances, census.count(Op_kind::div));
    EXPECT_EQ(s.sqrt_instances, census.count(Op_kind::sqrt_op));
    EXPECT_GT(s.divider_instances, 0);
    EXPECT_GT(s.sqrt_instances, 0);
}

TEST_F(Vhdl_fixture, emitted_text_is_self_consistent) {
    const Cone cone(step, Cone_spec{2, 2, 2});
    const std::string vhdl = emit_cone(cone, "igf");
    // Every referenced r_/i_/k_ signal is declared.
    EXPECT_NE(vhdl.find("entity islhls_igf_w2x2_d2 is"), std::string::npos);
    EXPECT_NE(vhdl.find("architecture rtl of islhls_igf_w2x2_d2 is"), std::string::npos);
    EXPECT_NE(vhdl.find("process(clk)"), std::string::npos);
    EXPECT_NE(vhdl.find("rising_edge(clk)"), std::string::npos);
    // No unresolved placeholders.
    EXPECT_EQ(vhdl.find("???"), std::string::npos);
}

TEST_F(Vhdl_fixture, constants_fold_into_signed_literals) {
    const Cone cone(step, Cone_spec{1, 1, 1});
    Vhdl_options options;  // Q10.6
    const std::string vhdl = emit_cone(cone, "igf", options);
    // 2.0 in Q10.6 is 128; the binomial kernel uses it.
    EXPECT_NE(vhdl.find("to_signed(128, WIDTH)"), std::string::npos);
}

TEST_F(Vhdl_fixture, support_package_defines_both_entities) {
    const std::string pkg = emit_support_package();
    EXPECT_NE(pkg.find("entity islhls_fixed_div is"), std::string::npos);
    EXPECT_NE(pkg.find("entity islhls_fixed_sqrt is"), std::string::npos);
    EXPECT_NE(pkg.find("architecture behavioral of islhls_fixed_div"),
              std::string::npos);
}

TEST_F(Vhdl_fixture, testbench_embeds_stimulus_and_expected) {
    const Cone cone(step, Cone_spec{1, 1, 1});
    const Register_program& prog = cone.program();
    Vhdl_options options;
    Prng rng(7);
    std::vector<double> stimulus;
    for (int i = 0; i < prog.input_count(); ++i) {
        stimulus.push_back(quantize(rng.next_in(0.0, 255.0), options.format));
    }
    const std::vector<double> expected = run_fixed(prog, stimulus, options.format);
    const std::string tb =
        emit_cone_testbench(cone, "igf", stimulus, expected, options);
    EXPECT_NE(tb.find("entity tb_islhls_igf_w1x1_d1"), std::string::npos);
    EXPECT_NE(tb.find("severity failure"), std::string::npos);
    EXPECT_NE(tb.find("report \"testbench passed\""), std::string::npos);
    // The expected raw value appears in an assert.
    const std::string raw = std::to_string(to_raw(expected[0], options.format));
    EXPECT_NE(tb.find("to_signed(" + raw), std::string::npos);
}

TEST_F(Vhdl_fixture, testbench_arity_is_validated) {
    const Cone cone(step, Cone_spec{1, 1, 1});
    const std::vector<double> one_value{1.0};
    EXPECT_THROW(emit_cone_testbench(cone, "igf", one_value, one_value),
                 Internal_error);
}

// Parameterized structural sweep across kernels and specs.
class Vhdl_sweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(Vhdl_sweep, structure_matches_program) {
    const auto [kernel, w, d] = GetParam();
    Stencil_step step = extract_stencil(kernel_by_name(kernel).c_source);
    const Cone cone(step, Cone_spec{w, w, d});
    const Vhdl_structure s = analyze_vhdl(emit_cone(cone, kernel));
    EXPECT_EQ(s.register_assignments, cone.program().register_count());
    Vhdl_options options;
    EXPECT_EQ(s.input_bits,
              cone.program().input_count() * options.format.total_bits());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Vhdl_sweep,
    ::testing::Combine(::testing::Values("igf", "chambolle", "erosion", "shock"),
                       ::testing::Values(1, 2), ::testing::Values(1, 2)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_w" + std::to_string(std::get<1>(info.param)) +
               "_d" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace islhls
