// Backend-seam tests: the Arch_backend interface must be a pure refactor of
// the paper datapath (byte-identical dumps across every kernel and thread
// count), the streaming backend's analytic model must track its
// cycle-approximate walk on every kernel, and the cross-backend merged front
// must obey the front-of-fronts identity.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "dse/streaming_backend.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {
namespace {

Evaluator_options small_evaluator_options() {
    Evaluator_options options;
    options.frame_width = 128;
    options.frame_height = 96;
    return options;
}

Space_options small_space(int threads = 1) {
    Space_options space;
    space.iterations = 4;
    space.max_window = 3;
    space.max_depth = 2;
    space.threads = threads;
    return space;
}

Cone_library make_library(const std::string& kernel) {
    return Cone_library(extract_stencil(kernel_by_name(kernel).c_source), kernel);
}

// The tentpole's refactor guarantee: routing the paper datapath through the
// Arch_backend seam changes no bytes. For every kernel, the legacy
// explore_pareto dump (at any thread count) must equal the generic backend
// dump over the serial candidate walk.
TEST(Backends, paper_dump_identical_across_kernels_and_threads) {
    const std::vector<std::string> kernels = kernel_names();
    ASSERT_GE(kernels.size(), 9u);
    for (const std::string& kernel : kernels) {
        // Serial reference through the generic seam.
        Cone_library reference_library = make_library(kernel);
        Explorer reference(reference_library, device_by_name("generic_small"),
                           small_evaluator_options(), small_space());
        Paper_backend& paper = reference.paper_backend();
        paper.calibrate();
        EXPECT_EQ(paper.name(), "paper");
        const std::string seam_dump = paper.dump(evaluate_all_candidates(paper));
        for (int threads : {1, 2, 8}) {
            Cone_library library = make_library(kernel);
            Explorer explorer(library, device_by_name("generic_small"),
                              small_evaluator_options(), small_space(threads));
            const Pareto_result result = explorer.explore_pareto();
            EXPECT_EQ(result.backend, "paper");
            EXPECT_EQ(dump(result), seam_dump)
                << kernel << " at " << threads << " threads";
        }
    }
}

// explore_backends over the paper backend alone must match the legacy path
// byte for byte too (dump(Backend_pareto) shares the layout).
TEST(Backends, single_backend_exploration_matches_legacy_dump) {
    Cone_library library = make_library("heat");
    Explorer explorer(library, device_by_name("generic_small"),
                      small_evaluator_options(), small_space());
    const std::string legacy = dump(explorer.explore_pareto());
    Cone_library library2 = make_library("heat");
    Explorer explorer2(library2, device_by_name("generic_small"),
                       small_evaluator_options(), small_space());
    const Backend_pareto merged =
        explorer2.explore_backends({&explorer2.paper_backend()});
    EXPECT_EQ(dump(merged), legacy);
}

// More channel bandwidth at a fixed (depth, vector, PE) shape can only ever
// shrink the transfer term: seconds_per_frame is monotone non-increasing and
// memory cycles strictly decreasing in `channels`.
TEST(Backends, streaming_front_monotone_in_channel_bandwidth) {
    Cone_library library = make_library("heat");
    Streaming_backend backend(library, device_by_name("xc6vlx760"),
                              small_evaluator_options(), small_space());
    backend.calibrate();
    std::map<std::tuple<int, int, int>, Streaming_evaluation> previous;
    int compared = 0;
    for (const Streaming_config& config : backend.configs()) {
        const Streaming_evaluation eval = backend.evaluate(config);
        if (!eval.feasible) continue;
        const auto shape = std::make_tuple(config.depth, config.vector_width,
                                           config.pe_count);
        const auto it = previous.find(shape);
        if (it != previous.end()) {
            // configs() enumerates channels in ascending order per shape.
            ASSERT_GT(config.channels, it->second.config.channels);
            EXPECT_LT(eval.memory_cycles, it->second.memory_cycles)
                << to_string(config);
            EXPECT_LE(eval.seconds_per_frame, it->second.seconds_per_frame)
                << to_string(config);
            ++compared;
        }
        previous[shape] = eval;
    }
    EXPECT_GT(compared, 0);
}

// The merged cross-backend front is front(paper points + streaming points):
// every merged-front member lies on its own backend's front, and the front
// indices are exactly the Pareto set of the tagged union.
TEST(Backends, cross_backend_front_contains_each_backends_own_front) {
    Cone_library library = make_library("heat");
    Explorer explorer(library, device_by_name("xc6vlx760"),
                      small_evaluator_options(), small_space());
    Streaming_backend streaming(library, device_by_name("xc6vlx760"),
                                small_evaluator_options(), small_space());
    const Backend_pareto merged =
        explorer.explore_backends({&explorer.paper_backend(), &streaming});
    ASSERT_FALSE(merged.points.empty());
    ASSERT_FALSE(merged.front.empty());

    // Both backends contribute evaluated points.
    std::map<std::string, int> contributed;
    for (const Backend_pareto::Tagged& t : merged.points) ++contributed[t.backend];
    EXPECT_GT(contributed["paper"], 0);
    EXPECT_GT(contributed["streaming"], 0);

    // The front really is the Pareto set of the union...
    std::vector<Design_point> all;
    for (std::size_t i = 0; i < merged.points.size(); ++i) {
        all.push_back({merged.points[i].point.area_luts,
                       merged.points[i].point.seconds_per_frame, i});
    }
    EXPECT_EQ(merged.front, pareto_front(all));

    // ...and each member survives the front of its own backend alone
    // (front(A + B) can only thin a backend's own front, never add to it).
    for (const std::string_view backend : {"paper", "streaming"}) {
        std::vector<Design_point> own;
        for (std::size_t i = 0; i < merged.points.size(); ++i) {
            if (merged.points[i].backend != backend) continue;
            own.push_back({merged.points[i].point.area_luts,
                           merged.points[i].point.seconds_per_frame, i});
        }
        std::vector<bool> on_own_front(merged.points.size(), false);
        for (std::size_t i : pareto_front(own)) on_own_front[own[i].tag] = true;
        for (std::size_t i : merged.front) {
            if (merged.points[i].backend != backend) continue;
            EXPECT_TRUE(on_own_front[i])
                << backend << " point " << merged.points[i].point.config
                << " is on the merged front but not its backend's own front";
        }
    }
}

// Cross-backend exploration stays byte-identical across thread counts, like
// every other exploration.
TEST(Backends, cross_backend_dump_identical_across_thread_counts) {
    std::string serial;
    for (int threads : {1, 2, 8}) {
        Cone_library library = make_library("jacobi");
        Explorer explorer(library, device_by_name("xc6vlx760"),
                          small_evaluator_options(), small_space(threads));
        Streaming_backend streaming(library, device_by_name("xc6vlx760"),
                                    small_evaluator_options(),
                                    small_space(threads));
        const std::string text = dump(
            explorer.explore_backends({&explorer.paper_backend(), &streaming}));
        if (threads == 1) {
            serial = text;
            EXPECT_FALSE(serial.empty());
        } else {
            EXPECT_EQ(text, serial) << "threads " << threads;
        }
    }
}

// The analytic streaming model against the cycle-approximate walk: on every
// kernel, for every feasible configuration, total modeled cycles stay within
// 10% of the walk (f_max cancels, so cycles compare directly).
TEST(Backends, streaming_model_tracks_cycle_walk_on_all_kernels) {
    const std::vector<std::string> kernels = kernel_names();
    ASSERT_GE(kernels.size(), 9u);
    const Fpga_device& device = device_by_name("xc6vlx760");
    const Evaluator_options evaluator_options = small_evaluator_options();
    const Space_options space = small_space();
    for (const std::string& kernel : kernels) {
        Cone_library library = make_library(kernel);
        Streaming_backend backend(library, device, evaluator_options, space);
        backend.calibrate();
        int checked = 0;
        for (const Streaming_config& config : backend.configs()) {
            const Streaming_evaluation eval = backend.evaluate(config);
            if (!eval.feasible) continue;
            Streaming_sim_options sim_options;
            sim_options.iterations = space.iterations;
            sim_options.fields_in = library.step().pool().field_count();
            sim_options.fields_out = library.step().state_field_count();
            sim_options.elems_per_cycle =
                config.channels * device.offchip_elems_per_cycle;
            const Streaming_sim_result sim = simulate_streaming_cycles(
                library, config, evaluator_options.frame_width,
                evaluator_options.frame_height, sim_options);
            ASSERT_EQ(sim.passes, eval.passes) << kernel << " " << to_string(config);
            const double model_cycles = eval.passes * eval.cycles_per_pass;
            const double walk_cycles = static_cast<double>(sim.total_cycles);
            ASSERT_GT(walk_cycles, 0.0) << kernel << " " << to_string(config);
            const double rel =
                std::abs(model_cycles - walk_cycles) / walk_cycles;
            EXPECT_LE(rel, 0.10)
                << kernel << " " << to_string(config) << ": model "
                << model_cycles << " vs walk " << walk_cycles;
            ++checked;
        }
        EXPECT_GT(checked, 0) << kernel;
    }
}

}  // namespace
}  // namespace islhls
