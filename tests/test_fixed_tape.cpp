// Fixed-point lane executor equivalence: the fixed-domain Lane_block, over
// the SSA layout (every tape slot its own lane slot) and over the
// liveness-compacted layout its consumers run, must be byte-identical to the
// run_fixed_raw reference interpreter for every kernel and format — the
// same memcmp contract the double engine holds against run_ir_reference.
// The compact layout itself is checked here too: slot safety, and bit
// identity against the SSA tape.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cone/cone.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/fixed_exec.hpp"
#include "sim/tape_lanes.hpp"
#include "support/prng.hpp"
#include "symexec/executor.hpp"

namespace islhls {
namespace {

// Formats spanning the interesting widths: the Q10.6 default, a narrow
// format whose adds/multiplies genuinely wrap (Q3.2 saturates 0..255 inputs
// at +/-4 and overflows products), an asymmetric pair, and a wide format
// where ops stay in range (the wrap must then be the identity).
const std::vector<Fixed_format>& test_formats() {
    static const std::vector<Fixed_format> formats = {
        {10, 6}, {3, 2}, {4, 4}, {12, 2}, {16, 12}};
    return formats;
}

// Per-sample input vectors for `count` window origins of the kernel's
// initial frame set, in program port order.
std::vector<std::vector<double>> gather_inputs(const Register_program& program,
                                               const Stencil_step& step,
                                               const Frame_set& content,
                                               Boundary boundary, int count,
                                               std::uint64_t seed) {
    Prng rng(seed);
    std::vector<std::vector<double>> sets;
    for (int s = 0; s < count; ++s) {
        const int ox = rng.next_int(0, content.width() - 1);
        const int oy = rng.next_int(0, content.height() - 1);
        std::vector<double> values;
        values.reserve(program.input_ports().size());
        for (const auto& port : program.input_ports()) {
            const Frame& f = content.field(step.pool().field_name(port.field));
            values.push_back(f.sample(ox + port.dx, oy + port.dy, boundary));
        }
        sets.push_back(std::move(values));
    }
    return sets;
}

// The same windows quantized like the production callers quantize them.
std::vector<std::vector<std::int64_t>> gather_raw_inputs(
    const Register_program& program, const Stencil_step& step,
    const Frame_set& content, Boundary boundary, const Fixed_format& fmt,
    int count, std::uint64_t seed) {
    const Raw_quantizer quantize(fmt);
    std::vector<std::vector<std::int64_t>> sets;
    for (const auto& values :
         gather_inputs(program, step, content, boundary, count, seed)) {
        std::vector<std::int64_t> raw;
        raw.reserve(values.size());
        for (double v : values) raw.push_back(quantize(v));
        sets.push_back(std::move(raw));
    }
    return sets;
}

// The SSA layout of a tape: one lane slot per tape slot, ops unchanged.
Lane_tape ssa_layout(const Compiled_program& cp) {
    Lane_tape layout;
    layout.tape = &cp;
    layout.ops = cp.ops();
    layout.slot_count = cp.slot_count();
    for (int s = 0; s < cp.slot_count(); ++s) layout.slot_of.push_back(s);
    return layout;
}

// Checks the lane block against the interpreter on the given samples: over
// the SSA layout output for output, and over the compact layout in one
// memcmp over the whole output array.
void expect_tape_matches_interpreter(
    const Register_program& program, const Fixed_format& fmt,
    const std::vector<std::vector<std::int64_t>>& input_sets) {
    const std::size_t in_count = program.input_ports().size();
    const std::size_t out_count = program.outputs().size();
    const std::size_t samples = input_sets.size();

    // Reference: one interpreter run per sample.
    std::vector<std::int64_t> expected;
    expected.reserve(samples * out_count);
    for (const auto& inputs : input_sets) {
        const std::vector<std::int64_t> out = run_fixed_raw(program, inputs, fmt);
        expected.insert(expected.end(), out.begin(), out.end());
    }

    std::vector<std::int64_t> flat(samples * in_count);
    for (std::size_t s = 0; s < samples; ++s) {
        std::copy(input_sets[s].begin(), input_sets[s].end(),
                  flat.begin() + s * in_count);
    }

    // SSA layout, sample by sample.
    const Lane_tape ssa = ssa_layout(program.compiled());
    Lane_block<std::int64_t> full(ssa, fmt);
    std::vector<std::int64_t> unpacked(samples * out_count, -1);
    full.run_batch(flat.data(), samples, unpacked.data());
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t o = 0; o < out_count; ++o) {
            ASSERT_EQ(unpacked[s * out_count + o], expected[s * out_count + o])
                << to_string(fmt) << " sample " << s << " output " << o;
        }
    }

    // Compact layout, whole batch in one pass.
    const Lane_tape layout = compact_lanes(program.compiled());
    Lane_block<std::int64_t> block(layout, fmt);
    std::vector<std::int64_t> batched(samples * out_count, -1);
    block.run_batch(flat.data(), samples, batched.data());
    EXPECT_EQ(std::memcmp(batched.data(), expected.data(),
                          expected.size() * sizeof(std::int64_t)),
              0)
        << to_string(fmt);
}

TEST(Fixed_lane_block, matches_interpreter_on_all_kernels_and_formats) {
    for (const std::string& name : kernel_names()) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{2, 2, 1});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(19, 15, 77));
        for (const Fixed_format& fmt : test_formats()) {
            SCOPED_TRACE(to_string(fmt));
            const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                                  kernel.boundary, fmt, 70, 5);
            expect_tape_matches_interpreter(cone.program(), fmt, inputs);
        }
    }
}

TEST(Fixed_lane_block, matches_interpreter_on_deep_cones) {
    // Deeper cones (chambolle exercises sqrt and the truncating divide, igf
    // the multiply shift) over a larger program.
    for (const std::string& name : {std::string("igf"), std::string("chambolle")}) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{3, 3, 2});
        const Frame_set content =
            kernel.make_initial(make_synthetic_scene(17, 13, 3));
        for (const Fixed_format& fmt : test_formats()) {
            SCOPED_TRACE(to_string(fmt));
            const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                                  kernel.boundary, fmt, 40, 11);
            expect_tape_matches_interpreter(cone.program(), fmt, inputs);
        }
    }
}

TEST(Fixed_lane_block, negative_divide_sqrt_and_wrap_edge_cases) {
    // A kernel built to hit the nasty operator corners: differences go
    // negative (truncating divide toward zero, abs, neg), the guarded
    // divide's denominator crosses zero, sqrt sees negative arguments, and
    // min/max/compare/select mix in.
    const char* source = R"(
void edges_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float d = u[y][x-1] - u[y][x+1];
            float q = d / (0.5f + fabsf(u[y-1][x]));
            float r = sqrtf(d);
            float m = fminf(u[y][x], -u[y+1][x]) + fmaxf(d, q);
            u_out[y][x] = (d < 0.0f ? r - m : q + m) + (u[y][x] - 127.0f);
        }
    }
}
)";
    Stencil_step step = extract_stencil(source);
    const Cone cone(step, Cone_spec{2, 2, 2});
    Frame_set content(13, 11);
    content.add_field("u", make_noise(13, 11, 0xEDBE, -300.0, 300.0));
    for (const Fixed_format& fmt : test_formats()) {
        SCOPED_TRACE(to_string(fmt));
        const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                              Boundary::mirror, fmt, 60, 23);
        expect_tape_matches_interpreter(cone.program(), fmt, inputs);
    }
}

TEST(Fixed_lane_block, out_of_range_raw_inputs_wrap_like_the_interpreter) {
    // Both layouts must wrap-resize raw input words on load (VHDL resize of a
    // wider bus), not just quantized in-range values.
    const Kernel_def& kernel = kernel_by_name("jacobi");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Fixed_format fmt{6, 2};
    Prng rng(99);
    std::vector<std::vector<std::int64_t>> sets;
    for (int s = 0; s < 40; ++s) {
        std::vector<std::int64_t> raw;
        for (std::size_t i = 0; i < cone.program().input_ports().size(); ++i) {
            // Far outside the 8-bit range, both signs.
            raw.push_back(static_cast<std::int64_t>(rng.next_int(-2000000, 2000000)) *
                          1021);
        }
        sets.push_back(std::move(raw));
    }
    expect_tape_matches_interpreter(cone.program(), fmt, sets);
}

TEST(Fixed_lane_block, partial_and_multi_block_batches) {
    // Batch sizes around the lane width: 1, kTapeLane - 1, kTapeLane,
    // kTapeLane + 1 and several full blocks plus a remainder.
    const Kernel_def& kernel = kernel_by_name("heat");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{2, 2, 1});
    const Frame_set content = kernel.make_initial(make_synthetic_scene(23, 17, 4));
    const Fixed_format fmt{10, 6};
    for (int samples : {1, kTapeLane - 1, kTapeLane, kTapeLane + 1, 3 * kTapeLane + 7}) {
        SCOPED_TRACE(samples);
        const auto inputs = gather_raw_inputs(cone.program(), step, content,
                                              kernel.boundary, fmt, samples, 31);
        expect_tape_matches_interpreter(cone.program(), fmt, inputs);
    }
}

TEST(Fixed_lane_block, lanes_are_reusable_across_formats_and_programs) {
    // One block per program layout, rebound to formats of different widths
    // (the format search keeps its per-job lanes this way), and programs of
    // different slot counts in turn, must not leak state between runs.
    const Kernel_def& igf = kernel_by_name("igf");
    Stencil_step igf_step = extract_stencil(igf.c_source);
    const Cone big(igf_step, Cone_spec{3, 3, 2});
    const Cone small(igf_step, Cone_spec{1, 1, 1});
    const Frame_set content = igf.make_initial(make_synthetic_scene(19, 15, 6));
    for (const Cone* cone : {&big, &small, &big}) {
        const Lane_tape layout = compact_lanes(cone->program().compiled());
        Lane_block<std::int64_t> block(layout, test_formats().back());
        for (const Fixed_format& fmt : test_formats()) {
            const auto inputs = gather_raw_inputs(cone->program(), igf_step, content,
                                                  igf.boundary, fmt, 33, 13);
            const std::size_t in_count = cone->program().input_ports().size();
            const std::size_t out_count = cone->program().outputs().size();
            std::vector<std::int64_t> flat(inputs.size() * in_count);
            for (std::size_t s = 0; s < inputs.size(); ++s) {
                std::copy(inputs[s].begin(), inputs[s].end(),
                          flat.begin() + s * in_count);
            }
            block.set_format(fmt);
            std::vector<std::int64_t> batched(inputs.size() * out_count);
            block.run_batch(flat.data(), inputs.size(), batched.data());
            for (std::size_t s = 0; s < inputs.size(); ++s) {
                const std::vector<std::int64_t> expected =
                    run_fixed_raw(cone->program(), inputs[s], fmt);
                ASSERT_EQ(std::memcmp(expected.data(), batched.data() + s * out_count,
                                      out_count * sizeof(std::int64_t)),
                          0)
                    << to_string(cone->spec()) << " " << to_string(fmt);
            }
        }
    }
}

// One lane block of `n` samples through `ops` in either layout: `slot_of`
// maps tape slots to lane slots (identity for the SSA tape), `run_op` runs
// one op over the block. `inputs` is row-major [n][inputs]; returns the
// output lanes, output-major.
template <typename T, typename Run_op>
std::vector<T> run_block(const Compiled_program& cp, const std::vector<Tape_op>& ops,
                         const std::vector<std::int32_t>& slot_of, int slot_count,
                         const std::vector<T>& constants, const std::vector<T>& inputs,
                         int n, const Run_op& run_op) {
    // Lanes start poisoned, so a stale or unwritten read cannot pass by chance.
    std::vector<T> lanes(static_cast<std::size_t>(slot_count) * kTapeLane, T(-7));
    auto lane = [&](std::int32_t slot) {
        return lanes.data() + static_cast<std::size_t>(slot_of[slot]) * kTapeLane;
    };
    for (std::size_t c = 0; c < cp.constants().size(); ++c) {
        std::fill(lane(cp.constants()[c].slot), lane(cp.constants()[c].slot) + n,
                  constants[c]);
    }
    const std::size_t in_count = cp.inputs().size();
    for (std::size_t i = 0; i < in_count; ++i) {
        for (int l = 0; l < n; ++l) {
            lane(cp.inputs()[i].slot)[l] =
                inputs[static_cast<std::size_t>(l) * in_count + i];
        }
    }
    for (const Tape_op& op : ops) run_op(op, lanes.data());
    std::vector<T> out;
    for (std::int32_t o : cp.output_slots()) out.insert(out.end(), lane(o), lane(o) + n);
    return out;
}

TEST(Lane_tape, compact_layout_is_live_safe_and_bit_identical) {
    // Every zoo kernel's (9x9, depth 5) cone: thousands of SSA slots, so the
    // layout reuses lane slots heavily.
    const Fixed_format fmt{10, 6};
    for (const std::string& name : kernel_names()) {
        SCOPED_TRACE(name);
        const Kernel_def& kernel = kernel_by_name(name);
        Stencil_step step = extract_stencil(kernel.c_source);
        const Cone cone(step, Cone_spec{9, 9, 5});
        const Compiled_program& cp = cone.program().compiled();
        const Lane_tape layout = compact_lanes(cp);
        const auto tape_slots = static_cast<std::size_t>(cp.slot_count());
        ASSERT_EQ(layout.slot_of.size(), tape_slots);
        ASSERT_EQ(layout.ops.size(), cp.ops().size());
        EXPECT_LE(layout.slot_count, cp.slot_count());

        // Constants, inputs and outputs own distinct pinned slots.
        std::vector<char> pinned(tape_slots, 0);
        for (const Tape_constant& c : cp.constants()) pinned[c.slot] = 1;
        for (const Tape_input& in : cp.inputs()) pinned[in.slot] = 1;
        for (std::int32_t o : cp.output_slots()) pinned[o] = 1;
        std::vector<char> pinned_lane(static_cast<std::size_t>(layout.slot_count), 0);
        for (std::size_t s = 0; s < tape_slots; ++s) {
            const std::int32_t l = layout.slot_of[s];
            ASSERT_TRUE(l >= 0 && l < layout.slot_count) << "tape slot " << s;
            if (!pinned[s]) continue;
            EXPECT_FALSE(pinned_lane[static_cast<std::size_t>(l)])
                << "pinned lane slot " << l << " shared";
            pinned_lane[static_cast<std::size_t>(l)] = 1;
        }

        // Walk the ops tracking which tape value owns each lane slot: every
        // read must see its own value, and no destination may land on a
        // value that is still live (pinned, or read at or after this op).
        std::vector<std::int32_t> last_use(tape_slots, -1);
        for (std::size_t i = 0; i < cp.ops().size(); ++i) {
            for (int a = 0; a < cp.ops()[i].src_count; ++a) {
                last_use[cp.ops()[i].src[a]] = static_cast<std::int32_t>(i);
            }
        }
        std::vector<std::int32_t> owner(static_cast<std::size_t>(layout.slot_count), -1);
        for (const Tape_constant& c : cp.constants()) {
            owner[layout.slot_of[c.slot]] = c.slot;
        }
        for (const Tape_input& in : cp.inputs()) owner[layout.slot_of[in.slot]] = in.slot;
        for (std::size_t i = 0; i < cp.ops().size(); ++i) {
            const Tape_op& ssa = cp.ops()[i];
            const Tape_op& op = layout.ops[i];
            ASSERT_EQ(op.kind, ssa.kind);
            ASSERT_EQ(op.src_count, ssa.src_count);
            ASSERT_EQ(op.dest, layout.slot_of[ssa.dest]);
            for (int a = 0; a < op.src_count; ++a) {
                ASSERT_EQ(op.src[a], layout.slot_of[ssa.src[a]]);
                ASSERT_EQ(owner[op.src[a]], ssa.src[a])
                    << "op " << i << " reads a clobbered slot";
            }
            if (!pinned[ssa.dest]) {
                EXPECT_FALSE(pinned_lane[op.dest])
                    << "op " << i << " writes a pinned slot";
            }
            const std::int32_t prev = owner[op.dest];
            const auto op_index = static_cast<std::int32_t>(i);
            const bool dead = prev < 0 || (!pinned[prev] && last_use[prev] < op_index);
            ASSERT_TRUE(dead) << "op " << i << " overwrites live value " << prev;
            owner[op.dest] = ssa.dest;
        }

        // Bit-identical output lanes against the SSA tape in both domains.
        std::vector<std::int32_t> identity(tape_slots);
        for (std::size_t s = 0; s < tape_slots; ++s) {
            identity[s] = static_cast<std::int32_t>(s);
        }
        const Frame_set content = kernel.make_initial(make_synthetic_scene(29, 23, 13));
        const Fixed_lane_domain fixed(fmt);
        std::vector<double> dconst;
        std::vector<std::int64_t> rconst;
        for (const Tape_constant& c : cp.constants()) {
            dconst.push_back(c.value);
            rconst.push_back(fixed.constant(c.value));
        }
        for (int n : {1, kTapeLane - 1, kTapeLane}) {
            SCOPED_TRACE(n);
            std::vector<double> dinputs;
            std::vector<std::int64_t> rinputs;
            const Raw_quantizer quantize(fmt);
            for (const auto& set :
                 gather_inputs(cone.program(), step, content, kernel.boundary, n, 19)) {
                for (double v : set) {
                    dinputs.push_back(v);
                    rinputs.push_back(quantize(v));
                }
            }
            const Double_lane_fn dk = double_lane_kernel();
            const auto dbl = [&](const Tape_op& op, double* lanes) { dk(&op, 1, lanes, n); };
            const std::vector<double> d_ssa = run_block(
                cp, cp.ops(), identity, cp.slot_count(), dconst, dinputs, n, dbl);
            const std::vector<double> d_compact =
                run_block(cp, layout.ops, layout.slot_of, layout.slot_count, dconst,
                          dinputs, n, dbl);
            ASSERT_EQ(d_ssa.size(), d_compact.size());
            EXPECT_EQ(std::memcmp(d_ssa.data(), d_compact.data(),
                                  d_ssa.size() * sizeof(double)),
                      0);

            const Fixed_lane_fn fk = fixed_lane_kernel();
            const auto fix = [&](const Tape_op& op, std::int64_t* lanes) {
                fk(&op, 1, lanes, n, fixed.wrap, fmt.frac_bits, fixed.one);
            };
            const std::vector<std::int64_t> f_ssa =
                run_block(cp, cp.ops(), identity, cp.slot_count(), rconst, rinputs, n, fix);
            const std::vector<std::int64_t> f_compact =
                run_block(cp, layout.ops, layout.slot_of, layout.slot_count, rconst,
                          rinputs, n, fix);
            EXPECT_EQ(f_ssa, f_compact);
        }
    }
}

TEST(Fixed_lane_block, constants_are_prequantized) {
    const Kernel_def& kernel = kernel_by_name("heat");
    Stencil_step step = extract_stencil(kernel.c_source);
    const Cone cone(step, Cone_spec{1, 1, 1});
    const Lane_tape layout = compact_lanes(cone.program().compiled());
    const auto& constants = cone.program().compiled().constants();
    ASSERT_FALSE(constants.empty());
    Lane_block<std::int64_t> block(layout, Fixed_format{16, 12});
    for (const Fixed_format& fmt : {Fixed_format{8, 4}, Fixed_format{12, 2}}) {
        SCOPED_TRACE(to_string(fmt));
        block.set_format(fmt);
        for (const Tape_constant& c : constants) {
            for (int l = 0; l < kTapeLane; ++l) {
                ASSERT_EQ(block.lane(c.slot)[l], to_raw(c.value, fmt));
            }
        }
        const Fixed_lane_domain domain(fmt);
        EXPECT_EQ(domain.one, to_raw(1.0, fmt));
        EXPECT_EQ(domain.wrap.bits(), fmt.total_bits());
    }
}

}  // namespace
}  // namespace islhls
