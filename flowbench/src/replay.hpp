// Traced replay of Sweep_service::run.
//
// The benchmark times layers from outside the library, so the traced run
// drives the same sweep the service runs, step by step, through each
// layer's public functions, and wraps each call in a span:
//
//   frontend       parse_single_function + analyze_kernel
//   symexec        execute_symbolically (+ the kernel's IR cache key)
//   cone.build     the (window, depth) cone grid, built up front in the
//                  order the evaluator's calibration builds it
//   synth          each virtual synthesis (timed through the library's
//                  Synthesis_store seam: a miss opens the span, the store
//                  of the fresh report closes it)
//   format_search  Explorer::search_formats per (kernel, device)
//   dse.fit / dse.pareto / dse.streaming
//                  Explorer::fit_device (+ the re-pricing of the fit at its
//                  searched format), Explorer::explore_pareto, and the
//                  streaming backend's calibration and evaluations
//   golden         run_ghost_ir, double and fixed
//   arch_sim       simulate_architecture, double and fixed
//   cache.load / cache.store
//                  Result_cache calls (their file I/O shows as nested
//                  cache.read / cache.write spans from the hooks wrapper)
//
// The replay fills a Sweep_report exactly as the service does, so the
// caller checks that its report_table() is byte-identical to the
// service's and that its counters match the service's counters.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/sweep.hpp"
#include "dse/cone_library.hpp"
#include "support/env_hooks.hpp"
#include "support/result_cache.hpp"

namespace flowbench {

// Work counts the service does not report itself.
struct Replay_counts {
    long long prebuild_lookups = 0;   // cone() calls made by the prebuild
    long long cone_registers = 0;     // sum of register_count of built cones
    long long cones_built_outside = 0;  // builds after the prebuild (0 expected)
    long long format_cells = 0;
    long long formats_tried = 0;
    long long dse_points = 0;
    long long arch_sim_cone_executions = 0;
    long long arch_sim_ops = 0;
};

class Replay_service {
public:
    // `cache_dir` empty = in-memory, like Service_options.
    Replay_service(const std::string& cache_dir, const islhls::Env_hooks* hooks);

    islhls::Sweep_report run(const islhls::Sweep_config& config);

    // Counts accumulated over every run() since construction.
    const Replay_counts& counts() const { return counts_; }
    islhls::Result_cache* cache() { return cache_.get(); }

private:
    islhls::Cone_library& library(const std::string& kernel);

    std::unique_ptr<islhls::Result_cache> cache_;
    std::map<std::string, std::unique_ptr<islhls::Cone_library>> libraries_;
    std::map<std::string, std::string> ir_keys_;
    std::map<std::string, islhls::Format_grid> format_grids_;
    Replay_counts counts_;
};

}  // namespace flowbench
