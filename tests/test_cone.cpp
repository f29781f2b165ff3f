// Cone construction: halo geometry, register accounting, reuse, and the
// central correctness property — a depth-d cone computes exactly d native
// iterations (ghost semantics) for every built-in kernel.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>

#include "cone/cone.hpp"
#include "dse/cone_library.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/golden.hpp"
#include "support/error.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

Stencil_step step_of(const std::string& kernel) {
    return extract_stencil(kernel_by_name(kernel).c_source);
}

TEST(Cone, input_window_grows_with_depth) {
    Stencil_step step = step_of("igf");
    for (int d = 1; d <= 4; ++d) {
        const Cone cone(step, Cone_spec{3, 3, d});
        const Window in = cone.input_window();
        EXPECT_EQ(in.width, 3 + 2 * d);
        EXPECT_EQ(in.height, 3 + 2 * d);
        EXPECT_EQ(in.x0, -d);
        EXPECT_EQ(in.y0, -d);
        // Every input the program reads lies inside the reported window.
        EXPECT_EQ(cone.stats().input_count,
                  static_cast<int>(cone.program().input_ports().size()));
        for (const auto& port : cone.program().input_ports()) {
            EXPECT_GE(port.dx, in.x0);
            EXPECT_LT(port.dx, in.x0 + in.width);
            EXPECT_GE(port.dy, in.y0);
            EXPECT_LT(port.dy, in.y0 + in.height);
        }
    }
}

TEST(Cone, asymmetric_footprint_asymmetric_halo) {
    Stencil_step step = extract_stencil(R"(
void f(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++)
        for (int x = 0; x < W; x++)
            u_out[y][x] = u[y][x-1] + u[y-1][x];
}
)");
    const Cone cone(step, Cone_spec{2, 2, 3});
    const Window in = cone.input_window();
    EXPECT_EQ(in.x0, -3);
    EXPECT_EQ(in.y0, -3);
    EXPECT_EQ(in.width, 5);   // left growth only
    EXPECT_EQ(in.height, 5);  // up growth only
}

TEST(Cone, register_count_grows_with_window_and_depth) {
    Stencil_step step = step_of("igf");
    int prev_w = 0;
    for (int w = 1; w <= 5; ++w) {
        const Cone cone(step, Cone_spec{w, w, 2});
        EXPECT_GT(cone.stats().register_count, prev_w);
        prev_w = cone.stats().register_count;
    }
    int prev_d = 0;
    for (int d = 1; d <= 5; ++d) {
        const Cone cone(step, Cone_spec{3, 3, d});
        EXPECT_GT(cone.stats().register_count, prev_d);
        prev_d = cone.stats().register_count;
    }
}

TEST(Cone, reuse_factor_exceeds_one_for_overlapping_windows) {
    Stencil_step step = step_of("igf");
    // A deep multi-element window re-reads many shared sub-results (Fig. 4
    // of the paper); naive tree expansion must be far bigger than the DAG.
    const Cone cone(step, Cone_spec{4, 4, 3});
    EXPECT_GT(cone.stats().reuse_factor(), 3.0);
    // Even a 1x1 depth-2 cone shares diagonal reads for the Gaussian.
    const Cone small(step, Cone_spec{1, 1, 2});
    EXPECT_GT(small.stats().reuse_factor(), 1.0);
}

TEST(Cone, depth1_single_element_is_the_step_itself) {
    Stencil_step step = step_of("jacobi");
    const Cone cone(step, Cone_spec{1, 1, 1});
    EXPECT_EQ(cone.outputs().size(), 1u);
    EXPECT_EQ(cone.outputs()[0], step.update(0));
}

TEST(Cone, output_index_layout) {
    Stencil_step step = step_of("chambolle");
    const Cone cone(step, Cone_spec{3, 2, 1});
    EXPECT_EQ(cone.stats().output_count, 2 * 3 * 2);
    EXPECT_EQ(cone.output_index(0, 0, 0), 0);
    EXPECT_EQ(cone.output_index(0, 2, 1), 5);
    EXPECT_EQ(cone.output_index(1, 0, 0), 6);
    EXPECT_THROW(cone.output_index(2, 0, 0), Internal_error);
    EXPECT_THROW(cone.output_index(0, 3, 0), Internal_error);
}

TEST(Cone, pipeline_depth_scales_with_cone_depth) {
    Stencil_step step = step_of("jacobi");
    const Cone d1(step, Cone_spec{2, 2, 1});
    const Cone d3(step, Cone_spec{2, 2, 3});
    EXPECT_GT(d3.stats().pipeline_depth, d1.stats().pipeline_depth);
    EXPECT_EQ(d3.stats().pipeline_depth, 3 * d1.stats().pipeline_depth);
}

TEST(Cone, rejects_degenerate_specs) {
    Stencil_step step = step_of("jacobi");
    EXPECT_THROW(Cone(step, Cone_spec{0, 1, 1}), Internal_error);
    EXPECT_THROW(Cone(step, Cone_spec{1, 1, 0}), Internal_error);
}

// --- the shared unroll memo against a per-cone reference --------------------

// Reference cone: its (state, level, x, y) memo lives for this one cone
// only, and its census and tree-expanded operation count come from walks
// over the DAG, not from the lowered program.
struct Reference_cone {
    Register_program program;
    Op_census census;
    double naive_operation_count = 0.0;
    Window input_window;
};

Reference_cone build_reference_cone(Stencil_step& step, int window, int depth) {
    Expr_pool& pool = step.pool();
    std::map<std::tuple<int, int, int, int>, Expr_id> memo;
    std::function<Expr_id(int, int, int, int)> value = [&](int s, int level, int x,
                                                          int y) -> Expr_id {
        if (level == 0) {
            const std::string& name = step.state_fields()[static_cast<std::size_t>(s)];
            return pool.input(pool.find_field(name), x, y);
        }
        const auto key = std::make_tuple(s, level, x, y);
        if (const auto it = memo.find(key); it != memo.end()) return it->second;
        const Expr_id result =
            transform_inputs(pool, step.update(s), [&](const Expr_node& leaf) -> Expr_id {
                const int state_pos = step.state_position(leaf.field);
                if (state_pos >= 0) {
                    return value(state_pos, level - 1, x + leaf.dx, y + leaf.dy);
                }
                return pool.input(leaf.field, x + leaf.dx, y + leaf.dy);
            });
        memo.emplace(key, result);
        return result;
    };
    std::vector<Expr_id> outputs;
    for (int s = 0; s < step.state_field_count(); ++s) {
        for (int y = 0; y < window; ++y) {
            for (int x = 0; x < window; ++x) outputs.push_back(value(s, depth, x, y));
        }
    }

    Reference_cone ref;
    ref.program = build_program(pool, outputs);
    std::unordered_map<Expr_id, double> naive;
    for (Expr_id id : reachable_nodes(pool, outputs)) {
        const Expr_node& n = pool.node(id);
        ref.census.by_kind[n.kind] += 1;
        if (is_operation(n.kind)) {
            ref.census.operation_count += 1;
        } else if (n.kind == Op_kind::input) {
            ref.census.input_count += 1;
        } else {
            ref.census.constant_count += 1;
        }
        double cost = is_operation(n.kind) ? 1.0 : 0.0;
        for (int i = 0; i < n.arg_count(); ++i) {
            cost += naive.at(n.args[static_cast<std::size_t>(i)]);
        }
        naive.emplace(id, cost);
    }
    for (Expr_id root : outputs) ref.naive_operation_count += naive.at(root);
    ref.input_window =
        input_window_for(Window{0, 0, window, window}, step.footprint(), depth);
    return ref;
}

bool same_instruction(const Instruction& a, const Instruction& b) {
    return std::tie(a.kind, a.value, a.field, a.dx, a.dy, a.operands, a.operand_count,
                    a.level) == std::tie(b.kind, b.value, b.field, b.dx, b.dy,
                                         b.operands, b.operand_count, b.level);
}

// Every build order over the DSE's 9x5 grid (windows x depths) gives, cone
// by cone, the program, stats and pool size the per-cone memo gives in the
// same order: a recomputed value would intern nothing new.
class Shared_unroll_memo : public ::testing::TestWithParam<std::string> {};

TEST_P(Shared_unroll_memo, matches_per_cone_memo_in_every_build_order) {
    const std::string& kernel = GetParam();
    constexpr int max_window = 9;
    constexpr int max_depth = 5;
    std::vector<std::pair<int, int>> depth_major;  // the order calibrate() builds
    for (int d = 1; d <= max_depth; ++d) {
        for (int w = 1; w <= max_window; ++w) depth_major.push_back({w, d});
    }
    std::vector<std::pair<int, int>> window_major;
    for (int w = 1; w <= max_window; ++w) {
        for (int d = 1; d <= max_depth; ++d) window_major.push_back({w, d});
    }
    std::vector<std::pair<int, int>> reverse(depth_major.rbegin(), depth_major.rend());

    for (const auto& order : {depth_major, window_major, reverse}) {
        Cone_library library(step_of(kernel), kernel);
        Stencil_step reference_step = step_of(kernel);
        for (const auto& [w, d] : order) {
            const Cone& cone = library.cone(w, d);
            const Reference_cone ref = build_reference_cone(reference_step, w, d);
            const std::string where = kernel + " " + to_string(cone.spec());

            const std::vector<Instruction>& got = cone.program().instructions();
            const std::vector<Instruction>& want = ref.program.instructions();
            ASSERT_EQ(got.size(), want.size()) << where;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_TRUE(same_instruction(got[i], want[i])) << where << " instr " << i;
            }
            EXPECT_EQ(cone.program().outputs(), ref.program.outputs()) << where;

            const Cone_stats& stats = cone.stats();
            EXPECT_EQ(stats.register_count, ref.program.register_count()) << where;
            EXPECT_EQ(stats.input_count, ref.program.input_count()) << where;
            EXPECT_EQ(stats.pipeline_depth, ref.program.depth()) << where;
            EXPECT_EQ(stats.census.by_kind, ref.census.by_kind) << where;
            EXPECT_EQ(stats.census.operation_count, ref.census.operation_count) << where;
            EXPECT_EQ(stats.census.input_count, ref.census.input_count) << where;
            EXPECT_EQ(stats.census.constant_count, ref.census.constant_count) << where;
            EXPECT_EQ(stats.naive_operation_count, ref.naive_operation_count) << where;
            EXPECT_EQ(stats.input_window, ref.input_window) << where;
            ASSERT_EQ(library.step().pool().size(), reference_step.pool().size())
                << where;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, Shared_unroll_memo, ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) { return info.param; });

// The core property (paper Sec. 3.1): evaluating the cone at window origin
// (ox, oy) with inputs read from the frame equals d ghost-golden iterations.
class Cone_equivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(Cone_equivalence, cone_computes_d_iterations) {
    const auto [kernel_name, window, depth] = GetParam();
    const Kernel_def& kernel = kernel_by_name(kernel_name);
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{window, window, depth});

    const Frame content = make_synthetic_scene(20, 14, 99);
    const Frame_set initial = kernel.make_initial(content);
    const Frame_set golden = run_ghost_ir(step, initial, depth, kernel.boundary);

    const Register_program& prog = cone.program();
    for (const auto& [ox, oy] : {std::pair{5, 4}, std::pair{0, 0}, std::pair{14, 9}}) {
        std::vector<double> inputs;
        inputs.reserve(prog.input_ports().size());
        for (const auto& port : prog.input_ports()) {
            const Frame& f = initial.field(step.pool().field_name(port.field));
            inputs.push_back(f.sample(ox + port.dx, oy + port.dy, kernel.boundary));
        }
        const std::vector<double> trace = prog.run_trace(inputs);
        for (int s = 0; s < step.state_field_count(); ++s) {
            const Frame& gold =
                golden.field(step.state_fields()[static_cast<std::size_t>(s)]);
            for (int yy = 0; yy < window && oy + yy < 14; ++yy) {
                for (int xx = 0; xx < window && ox + xx < 20; ++xx) {
                    EXPECT_EQ(trace[static_cast<std::size_t>(
                                  prog.outputs()[static_cast<std::size_t>(
                                      cone.output_index(s, xx, yy))])],
                              gold.at(ox + xx, oy + yy))
                        << kernel_name << " w" << window << " d" << depth << " at ("
                        << ox + xx << "," << oy + yy << ")";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Cone_equivalence,
    ::testing::Combine(::testing::Values("igf", "chambolle", "jacobi", "heat",
                                         "erosion", "shock", "perona_malik", "mean"),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_w" + std::to_string(std::get<1>(info.param)) +
               "_d" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace islhls
