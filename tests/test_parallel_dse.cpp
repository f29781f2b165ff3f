// Parallel exploration engine: byte-identical determinism across thread
// counts, concurrent cone-library access, and the batch sweep service.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "core/sweep.hpp"
#include "dse/explorer.hpp"
#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {
namespace {

Evaluator_options small_evaluator_options() {
    Evaluator_options options;
    options.frame_width = 320;
    options.frame_height = 240;
    options.class_overhead_luts = 2000.0;
    return options;
}

Space_options small_space(int threads) {
    Space_options space;
    space.iterations = 6;
    space.max_window = 4;
    space.max_depth = 3;
    space.threads = threads;
    return space;
}

// Each run gets a cold cache so the serial baseline and the parallel runs
// exercise the same build/synthesis paths, not just cache lookups.
struct Run_dumps {
    std::string pareto;
    std::string fit;
    std::string validation;
};

Run_dumps run_explorer(int threads, const std::string& device) {
    Cone_library library(extract_stencil(kernel_by_name("jacobi").c_source),
                         "jacobi");
    Explorer explorer(library, device_by_name(device), small_evaluator_options(),
                      small_space(threads));
    Run_dumps dumps;
    dumps.pareto = dump(explorer.explore_pareto());
    dumps.fit = dump(explorer.fit_device());
    dumps.validation = dump(explorer.validate_area_model());
    return dumps;
}

TEST(Parallel_dse, results_byte_identical_across_thread_counts) {
    const Run_dumps serial = run_explorer(1, "generic_small");
    EXPECT_FALSE(serial.pareto.empty());
    for (int threads : {2, 8}) {
        const Run_dumps parallel = run_explorer(threads, "generic_small");
        EXPECT_EQ(parallel.pareto, serial.pareto) << "threads " << threads;
        EXPECT_EQ(parallel.fit, serial.fit) << "threads " << threads;
        EXPECT_EQ(parallel.validation, serial.validation) << "threads " << threads;
    }
}

TEST(Parallel_dse, evaluator_pure_after_calibration) {
    Cone_library library(extract_stencil(kernel_by_name("jacobi").c_source),
                         "jacobi");
    Arch_evaluator evaluator(library, device_by_name("generic_small"),
                             small_evaluator_options());
    EXPECT_FALSE(evaluator.is_calibrated(2));
    // Calibrate the whole (window, depth) grid the instance below reaches:
    // evaluations after this are pure (no model fits, no pool growth).
    evaluator.calibrate(4, 3);
    for (int d = 1; d <= 3; ++d) EXPECT_TRUE(evaluator.is_calibrated(d));

    // Concurrent evaluations of the same instance agree exactly.
    Arch_instance instance;
    instance.window = 3;
    instance.level_depths = {2, 2, 2};
    instance.cores_per_depth = {{2, 2}};
    const std::string reference = dump(evaluator.evaluate(instance));
    std::vector<std::string> seen(16);
    parallel_for(seen.size(), 8, [&](std::size_t i) {
        seen[i] = dump(evaluator.evaluate(instance));
    });
    for (const std::string& s : seen) EXPECT_EQ(s, reference);
}

TEST(Parallel_dse, cone_library_survives_concurrent_hammering) {
    Cone_library library(extract_stencil(kernel_by_name("jacobi").c_source),
                         "jacobi");
    const Fpga_device& device = device_by_name("generic_small");
    const Synth_options synth;
    const int max_window = 4;
    const int max_depth = 3;

    // 8 threads race over the whole grid several times; every (w, d) cone and
    // synthesis must be built exactly once and stay stable.
    std::vector<const Cone*> first_pass(
        static_cast<std::size_t>(max_window * max_depth), nullptr);
    std::atomic<long long> checksum{0};
    parallel_for(static_cast<std::size_t>(max_window * max_depth) * 8, 8,
                 [&](std::size_t i) {
                     const std::size_t cell = i % (max_window * max_depth);
                     const int w = static_cast<int>(cell) / max_depth + 1;
                     const int d = static_cast<int>(cell) % max_depth + 1;
                     const Cone& cone = library.cone(w, d);
                     checksum.fetch_add(library.stats(w, d).register_count);
                     const Synthesis_report& report =
                         library.synthesis(w, d, device, synth);
                     EXPECT_GT(report.lut_count, 0.0);
                     // The first writer records the address; later readers of
                     // the same cell must see the same object.
                     const Cone* expected = nullptr;
                     if (!std::atomic_ref<const Cone*>(first_pass[cell])
                              .compare_exchange_strong(expected, &cone)) {
                         EXPECT_EQ(expected, &cone);
                     }
                 });

    EXPECT_EQ(library.cone_builds(), max_window * max_depth);
    EXPECT_EQ(library.synthesis_runs(), max_window * max_depth);
    // Two direct lookups per body run; synthesis misses add a few more via
    // their internal cone() call, so this is a lower bound.
    EXPECT_GE(library.cone_lookups(),
              static_cast<long long>(max_window * max_depth) * 8 * 2);
    // The meter equals the key-ordered sum of the cached costs regardless of
    // the schedule that filled the cache.
    double total = 0.0;
    for (double c : library.synthesis_costs()) total += c;
    EXPECT_DOUBLE_EQ(library.synthesis_cpu_seconds(), total);
}

// A fresh synthesis enters the memo map before the persistent store sees
// it. Otherwise a racing worker could load the just-stored report, win the
// insert and flag it as a load, and synthesis_runs() would come out low.
TEST(Parallel_dse, fresh_synthesis_is_counted_before_it_is_stored) {
    Cone_library library(extract_stencil(kernel_by_name("jacobi").c_source),
                         "jacobi");
    const Fpga_device& device = device_by_name("generic_small");
    const Synth_options synth;
    int stores = 0;
    Synthesis_store store;
    store.load = [](const std::string&) { return std::optional<Synthesis_report>{}; };
    store.store = [&](const std::string&, const Synthesis_report&) {
        ++stores;
        EXPECT_EQ(library.synthesis_runs(), stores);
        EXPECT_EQ(library.synthesis_loads(), 0);
    };
    library.attach_synthesis_store(store, "jacobi/");
    library.synthesis(1, 1, device, synth);
    library.synthesis(2, 1, device, synth);
    library.synthesis(1, 1, device, synth);  // memo hit: no second store
    EXPECT_EQ(stores, 2);
    EXPECT_EQ(library.synthesis_runs(), 2);
}

TEST(Parallel_dse, sweep_service_matches_standalone_explorers) {
    Sweep_config config;
    config.kernels = {"jacobi", "igf"};
    config.devices = {"generic_small", "xc6vlx760"};
    config.iteration_counts = {4, 6};
    config.frame_width = 320;
    config.frame_height = 240;
    config.space = small_space(2);

    const Sweep_report report = Sweep_service{}.run(config);
    ASSERT_EQ(report.entries.size(), 8u);

    // Entries come back kernel-major, then device, then N.
    EXPECT_EQ(report.entries[0].kernel, "jacobi");
    EXPECT_EQ(report.entries[0].device, "generic_small");
    EXPECT_EQ(report.entries[0].iterations, 4);
    EXPECT_EQ(report.entries[7].kernel, "igf");
    EXPECT_EQ(report.entries[7].device, "xc6vlx760");
    EXPECT_EQ(report.entries[7].iterations, 6);

    // Each entry equals what a standalone explorer finds for that combo.
    for (const Sweep_entry& entry : report.entries) {
        Cone_library library(
            extract_stencil(kernel_by_name(entry.kernel).c_source), entry.kernel);
        Evaluator_options evaluator_options;
        evaluator_options.frame_width = config.frame_width;
        evaluator_options.frame_height = config.frame_height;
        Space_options space = config.space;
        space.iterations = entry.iterations;
        Explorer explorer(library, device_by_name(entry.device),
                          evaluator_options, space);
        const Fit_result fit = explorer.fit_device();
        ASSERT_EQ(entry.fits, fit.has_best);
        if (entry.fits) {
            EXPECT_EQ(dump(entry.best), dump(fit.best));
        }
    }

    // The shared cache builds each kernel's cone grid once, not once per
    // device x iteration-count combination.
    const int grid = config.space.max_window * config.space.max_depth;
    EXPECT_EQ(report.cone_builds, 2 * grid);
    // Syntheses are shared across iteration counts (keyed by device only).
    EXPECT_EQ(report.synthesis_runs,
              2 * grid * static_cast<int>(config.devices.size()));
    EXPECT_GT(report.synthesis_lookups, report.synthesis_runs);
}

TEST(Parallel_dse, sweep_validation_is_exact_and_changes_nothing_else) {
    Sweep_config config;
    config.kernels = {"jacobi", "life"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {3};
    config.frame_width = 320;
    config.frame_height = 240;
    config.space = small_space(2);
    config.validation_frame_width = 20;
    config.validation_frame_height = 14;

    const Sweep_report plain = Sweep_service{}.run(config);

    config.validate = true;
    const Sweep_report validated = Sweep_service{}.run(config);

    ASSERT_EQ(plain.entries.size(), validated.entries.size());
    for (std::size_t i = 0; i < plain.entries.size(); ++i) {
        const Sweep_entry& p = plain.entries[i];
        const Sweep_entry& v = validated.entries[i];
        SCOPED_TRACE(p.kernel);
        // Validation is additive: the exploration results are untouched.
        EXPECT_FALSE(p.validated);
        EXPECT_EQ(p.fits, v.fits);
        if (p.fits) {
            EXPECT_EQ(dump(p.best), dump(v.best));
            // Double-mode architecture simulation must reproduce the ghost
            // golden exactly — any deviation is a flow bug.
            EXPECT_TRUE(v.validated);
            EXPECT_EQ(v.validation_max_abs_err, 0.0);
        } else {
            EXPECT_FALSE(v.validated);
        }
    }
    // The report renders the golden column.
    EXPECT_NE(to_string(validated).find("exact"), std::string::npos);
}

TEST(Parallel_dse, explorer_shared_pool_results_are_byte_identical) {
    // An explorer on an injected pool must produce the dumps of a serial
    // explorer; the same pool serves several explorers in sequence (the
    // sweep service's usage pattern).
    const Kernel_def& kernel = kernel_by_name("igf");
    Thread_pool pool(4);
    for (const std::string device : {"generic_small", "xc6vlx760"}) {
        SCOPED_TRACE(device);
        Cone_library serial_lib(extract_stencil(kernel.c_source), kernel.name);
        Explorer serial(serial_lib, device_by_name(device),
                        small_evaluator_options(), small_space(1));
        Cone_library pooled_lib(extract_stencil(kernel.c_source), kernel.name);
        Explorer pooled(pooled_lib, device_by_name(device),
                        small_evaluator_options(), small_space(1), &pool);
        EXPECT_EQ(dump(serial.explore_pareto()), dump(pooled.explore_pareto()));
        EXPECT_EQ(dump(serial.fit_device()), dump(pooled.fit_device()));
    }
}

TEST(Parallel_dse, sweep_rejects_bad_config) {
    Sweep_config config;
    EXPECT_THROW(Sweep_service{}.run(config), Error);
    config.kernels = {"jacobi"};
    config.devices = {"generic_small"};
    config.iteration_counts = {4, 0};
    EXPECT_THROW(Sweep_service{}.run(config), Error);
}

}  // namespace
}  // namespace islhls
