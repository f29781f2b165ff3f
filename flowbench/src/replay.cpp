#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "core/sweep_records.hpp"
#include "dse/pareto.hpp"
#include "dse/streaming_backend.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "grid/frame_ops.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "sim/golden.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"
#include "trace.hpp"

namespace flowbench {

using namespace islhls;

namespace {

// The synthesis span open on this thread: Cone_library::synthesis() consults
// the store's load() right before synthesizing and calls store() right after,
// so the span between the two is exactly one virtual synthesis.
thread_local int open_synth_span = -1;

std::optional<std::string> cache_load(Result_cache& cache, const std::string& key) {
    Scoped_span span("cache.load");
    return cache.load(key);
}

bool cache_store(Result_cache& cache, const std::string& key,
                 const std::string& payload) {
    Scoped_span span("cache.store");
    return cache.store(key, payload);
}

using Validation_cache =
    std::map<std::pair<std::string, int>, std::pair<Frame_set, Frame_set>>;
using Fixed_validation_cache =
    std::map<std::tuple<std::string, int, int, int>,
             std::pair<Frame_set, Fixed_frame_result>>;

Frame_set validation_initial(const Sweep_config& config, const Kernel_def& kernel) {
    Scoped_span span("scene", kernel.name);
    return kernel.make_initial(make_synthetic_scene(config.validation_frame_width,
                                                    config.validation_frame_height,
                                                    config.validation_seed));
}

void add_transfer(Replay_counts& counts, const Transfer_stats& stats) {
    counts.arch_sim_cone_executions += stats.cone_executions;
    counts.arch_sim_ops += stats.operations_executed;
}

// Sweep_service's validate_fit, with the golden and arch-sim calls spanned.
double validate_fit(const Sweep_config& config, Cone_library& library,
                    const Sweep_entry& entry, Thread_pool* pool,
                    Validation_cache& cache, Replay_counts& counts) {
    const Kernel_def& kernel = kernel_by_name(entry.kernel);
    auto it = cache.find({entry.kernel, entry.iterations});
    if (it == cache.end()) {
        Frame_set initial = validation_initial(config, kernel);
        Frame_set golden;
        {
            Scoped_span span("golden", kernel.name + " double");
            golden = run_ghost_ir(library.step(), initial, entry.iterations,
                                  kernel.boundary, Exec_options{1, 0, 0, pool});
        }
        it = cache.emplace(std::make_pair(entry.kernel, entry.iterations),
                           std::make_pair(std::move(initial), std::move(golden)))
                 .first;
    }
    Arch_sim_options sim_options;
    sim_options.boundary = kernel.boundary;
    Arch_sim_result sim;
    {
        Scoped_span span("arch_sim", kernel.name + " double");
        sim = simulate_architecture(library, entry.best.instance, it->second.first,
                                    sim_options);
    }
    add_transfer(counts, sim.stats);
    double max_err = 0.0;
    for (const std::string& field : kernel.state_fields) {
        max_err = std::max(max_err, max_abs_diff(sim.final_state.field(field),
                                                 it->second.second.field(field)));
    }
    return max_err;
}

// Sweep_service's validate_fit_fixed, spanned the same way.
double validate_fit_fixed(const Sweep_config& config, Cone_library& library,
                          const Sweep_entry& entry, const Fixed_format& format,
                          Thread_pool* pool, Fixed_validation_cache& cache,
                          Replay_counts& counts) {
    const Kernel_def& kernel = kernel_by_name(entry.kernel);
    const auto key = std::make_tuple(entry.kernel, entry.iterations,
                                     format.integer_bits, format.frac_bits);
    auto it = cache.find(key);
    if (it == cache.end()) {
        Frame_set initial = validation_initial(config, kernel);
        Fixed_frame_result golden;
        {
            Scoped_span span("golden", kernel.name + " " + to_string(format));
            golden = run_ghost_ir(library.step(), initial, entry.iterations,
                                  kernel.boundary, format, Exec_options{1, 0, 0, pool});
        }
        it = cache.emplace(key, std::make_pair(std::move(initial), std::move(golden)))
                 .first;
    }
    const Fixed_frame_result& golden = it->second.second;
    Arch_sim_options sim_options;
    sim_options.boundary = kernel.boundary;
    sim_options.fixed_point = true;
    sim_options.format = format;
    Arch_sim_result sim;
    {
        Scoped_span span("arch_sim", kernel.name + " " + to_string(format));
        sim = simulate_architecture(library, entry.best.instance, it->second.first,
                                    sim_options);
    }
    add_transfer(counts, sim.stats);
    const Raw_quantizer to_raw_word(format);
    std::int64_t max_err = 0;
    for (const std::string& field : kernel.state_fields) {
        const Frame& frame = sim.final_state.field(field);
        const std::size_t index = static_cast<std::size_t>(
            std::find(golden.names.begin(), golden.names.end(), field) -
            golden.names.begin());
        const std::vector<std::int64_t>& expected = golden.raw[index];
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const std::int64_t d = to_raw_word(frame.data()[i]) - expected[i];
            max_err = std::max(max_err, d < 0 ? -d : d);
        }
    }
    return static_cast<double>(max_err);
}

struct Meters {
    int cone_builds = 0;
    long long cone_lookups = 0;
    int synthesis_runs = 0;
    long long synthesis_lookups = 0;
    double synthesis_cpu_seconds = 0.0;
    int synthesis_loads = 0;
};

Meters total_meters(
    const std::map<std::string, std::unique_ptr<Cone_library>>& libraries) {
    Meters total;
    for (const auto& [name, lib] : libraries) {
        total.cone_builds += lib->cone_builds();
        total.cone_lookups += lib->cone_lookups();
        total.synthesis_runs += lib->synthesis_runs();
        total.synthesis_lookups += lib->synthesis_lookups();
        total.synthesis_cpu_seconds += lib->synthesis_cpu_seconds();
        total.synthesis_loads += lib->synthesis_loads();
    }
    return total;
}

}  // namespace

Replay_service::Replay_service(const std::string& cache_dir, const Env_hooks* hooks) {
    if (!cache_dir.empty()) {
        Scoped_span span("cache.open");
        cache_ = std::make_unique<Result_cache>(cache_dir, hooks);
    }
}

Cone_library& Replay_service::library(const std::string& kernel) {
    auto it = libraries_.find(kernel);
    if (it != libraries_.end()) return *it->second;
    const Kernel_def& def = kernel_by_name(kernel);
    std::optional<Function_ast> fn;
    std::optional<Kernel_info> info;
    {
        Scoped_span span("frontend", def.name);
        fn.emplace(parse_single_function(def.c_source));
        info.emplace(analyze_kernel(*fn));
    }
    std::string key;
    {
        Scoped_span span("symexec", def.name);
        Stencil_step step = execute_symbolically(*fn, *info);
        it = libraries_
                 .emplace(kernel, std::make_unique<Cone_library>(std::move(step),
                                                                def.name))
                 .first;
        key = kernel_ir_key(def.name, def.boundary, it->second->step());
    }
    const std::string prefix = synthesis_key_prefix(key);
    ir_keys_.emplace(kernel, std::move(key));
    // The same persistence binding Sweep_service makes, plus the synthesis
    // span: a miss opens it, the store of the fresh report closes it. Bound
    // even without a cache so in-memory syntheses are timed too.
    Result_cache* cache = cache_.get();
    Synthesis_store store;
    store.load = [cache, prefix](const std::string& k)
        -> std::optional<Synthesis_report> {
        if (cache != nullptr) {
            if (std::optional<std::string> payload = cache_load(*cache, k)) {
                Synthesis_report report;
                std::string error;
                if (parse_record(*payload, &report, &error)) return report;
            }
        }
        if (g_trace != nullptr) {
            std::string detail = k.substr(std::min(prefix.size(), k.size()));
            if (!detail.empty() && detail.back() == '\n') detail.pop_back();
            open_synth_span = g_trace->begin("synth", std::move(detail));
        }
        return std::nullopt;
    };
    store.store = [cache](const std::string& k, const Synthesis_report& report) {
        if (g_trace != nullptr && open_synth_span >= 0) {
            g_trace->end(open_synth_span);
            open_synth_span = -1;
        }
        if (cache != nullptr) cache_store(*cache, k, serialize_record(report));
    };
    it->second->attach_synthesis_store(std::move(store), prefix);
    return *it->second;
}

Sweep_report Replay_service::run(const Sweep_config& config) {
    Scoped_span root("sweep");
    const auto start = std::chrono::steady_clock::now();
    validate_config(config);
    Sweep_report report;
    const Meters before = total_meters(libraries_);
    std::optional<Thread_pool> pool;
    if (resolve_thread_count(config.space.threads) > 1) {
        pool.emplace(config.space.threads);
    }
    Thread_pool* shared_pool = pool ? &*pool : nullptr;
    Validation_cache validation_cache;
    Fixed_validation_cache fixed_validation_cache;
    for (const std::string& kernel : config.kernels) {
        Cone_library& lib = library(kernel);
        const std::string& ikey = ir_keys_.at(kernel);
        // The cone grid, in the evaluator's calibration order (depth-major),
        // built before any other layer asks for a cone — on the kernel's
        // first cache miss, where the service's first calibration builds it.
        bool prebuilt = false;
        int builds_after_prebuild = lib.cone_builds();
        auto prebuild = [&] {
            if (prebuilt) return;
            prebuilt = true;
            // A resident library that already holds the grid needs no build
            // (and the service makes no lookups for one).
            if (lib.cone_builds() >=
                config.space.max_window * config.space.max_depth) {
                return;
            }
            Scoped_span span("cone.build", kernel);
            for (int d = 1; d <= config.space.max_depth; ++d) {
                for (int w = 1; w <= config.space.max_window; ++w) {
                    lib.cone(w, d);
                    counts_.prebuild_lookups += 1;
                }
            }
            builds_after_prebuild = lib.cone_builds();
            for (int d = 1; d <= config.space.max_depth; ++d) {
                for (int w = 1; w <= config.space.max_window; ++w) {
                    counts_.cone_registers += lib.stats(w, d).register_count;
                    counts_.prebuild_lookups += 1;
                }
            }
        };
        for (const std::string& device_name : config.devices) {
            const Fpga_device& device = device_by_name(device_name);
            for (int iterations : config.iteration_counts) {
                for (const std::string& backend_name : config.backends) {
                    std::string entry_key;
                    if (cache_) {
                        entry_key = sweep_entry_key(ikey, config, device_name,
                                                    iterations, backend_name);
                        if (std::optional<std::string> payload =
                                cache_load(*cache_, entry_key)) {
                            Sweep_entry cached;
                            std::string error;
                            if (parse_record(*payload, &cached, &error)) {
                                ++report.entry_hits;
                                report.entries.push_back(std::move(cached));
                                continue;
                            }
                        }
                        ++report.entry_misses;
                    }
                    prebuild();

                    Evaluator_options evaluator_options;
                    evaluator_options.frame_width = config.frame_width;
                    evaluator_options.frame_height = config.frame_height;
                    evaluator_options.format = config.format;
                    evaluator_options.synth.format = config.format;
                    evaluator_options.throughput = config.throughput;
                    evaluator_options.calibration_windows = config.calibration_windows;

                    Space_options space = config.space;
                    space.iterations = iterations;

                    Sweep_entry entry;
                    entry.kernel = kernel;
                    entry.device = device_name;
                    entry.iterations = iterations;
                    entry.backend = backend_name;

                    auto format_grid = [&]() -> const Format_grid& {
                        const std::string gkey = format_grid_key(ikey, config, device_name);
                        auto grid_it = format_grids_.find(gkey);
                        if (grid_it != format_grids_.end()) return grid_it->second;
                        std::optional<Format_grid> loaded;
                        if (cache_) {
                            if (std::optional<std::string> payload =
                                    cache_load(*cache_, gkey)) {
                                Format_grid parsed;
                                std::string error;
                                if (parse_record(*payload, &parsed, &error)) {
                                    loaded = std::move(parsed);
                                }
                            }
                        }
                        if (loaded) {
                            ++report.grid_hits;
                            return format_grids_.emplace(gkey, std::move(*loaded))
                                .first->second;
                        }
                        const Kernel_def& def = kernel_by_name(kernel);
                        const Frame_set content = validation_initial(config, def);
                        Explorer grid_explorer(lib, device, evaluator_options, space,
                                               shared_pool);
                        Format_grid grid;
                        {
                            Scoped_span span("format_search", kernel);
                            grid = grid_explorer.search_formats(content, def.boundary,
                                                                config.format_search);
                        }
                        for (const Format_cell& cell : grid.cells) {
                            counts_.format_cells += 1;
                            counts_.formats_tried += cell.result.formats_tried;
                        }
                        grid_it = format_grids_.emplace(gkey, std::move(grid)).first;
                        if (cache_) {
                            ++report.grid_misses;
                            cache_store(*cache_, gkey, serialize_record(grid_it->second));
                        }
                        return grid_it->second;
                    };

                    if (backend_name == "streaming") {
                        std::optional<Scoped_span> span;
                        span.emplace("dse.streaming", kernel);
                        Streaming_backend streaming(lib, device, evaluator_options, space);
                        streaming.calibrate();
                        bool any = false;
                        std::vector<Backend_point> points;
                        for (const Streaming_config& candidate : streaming.configs()) {
                            const Streaming_evaluation eval = streaming.evaluate(candidate);
                            counts_.dse_points += 1;
                            if (!eval.feasible) continue;
                            if (!any || eval.fps > entry.streaming_best.fps) {
                                entry.streaming_best = eval;
                                any = true;
                            }
                            if (config.with_pareto) {
                                points.push_back({to_string(eval.config), eval.area_luts,
                                                  eval.seconds_per_frame, eval.fps, ""});
                            }
                        }
                        entry.fits = any;
                        if (config.with_pareto) {
                            std::vector<Design_point> dps;
                            dps.reserve(points.size());
                            for (std::size_t i = 0; i < points.size(); ++i) {
                                dps.push_back({points[i].area_luts,
                                               points[i].seconds_per_frame, i});
                            }
                            const std::vector<std::size_t> front = pareto_front(dps);
                            entry.pareto_points = points.size();
                            entry.pareto_front_size = front.size();
                            for (std::size_t i : front) {
                                entry.front_points.push_back(
                                    {points[i].config, points[i].area_luts,
                                     points[i].seconds_per_frame, points[i].fps});
                            }
                        }
                        span.reset();
                        if (config.search_formats && entry.fits) {
                            const Format_cell& cell = format_grid().at(
                                1, entry.streaming_best.config.depth, space.max_depth);
                            entry.format_searched = true;
                            entry.format_satisfiable = cell.result.satisfiable;
                            entry.fixed_format = cell.result.format;
                            entry.format_exact = cell.result.exact;
                            entry.format_psnr_db = cell.result.psnr_db;
                            if (entry.format_satisfiable) {
                                Scoped_span reprice("dse.streaming", kernel + " reprice");
                                Evaluator_options priced = evaluator_options;
                                priced.format = entry.fixed_format;
                                priced.synth.format = entry.fixed_format;
                                Streaming_backend priced_streaming(lib, device, priced,
                                                                   space);
                                priced_streaming.calibrate();
                                const Streaming_evaluation re =
                                    priced_streaming.evaluate(entry.streaming_best.config);
                                counts_.dse_points += 1;
                                entry.searched_area_luts = re.area_luts;
                                entry.searched_fps = re.fps;
                                entry.searched_f_max_mhz = re.f_max_mhz;
                            }
                        }
                        if (cache_ && !entry_key.empty() &&
                            cache_store(*cache_, entry_key, serialize_record(entry))) {
                            ++report.entry_stores;
                        }
                        report.entries.push_back(std::move(entry));
                        continue;
                    }

                    Explorer explorer(lib, device, evaluator_options, space, shared_pool);
                    {
                        Scoped_span span("dse.fit", kernel);
                        const Fit_result fit = explorer.fit_device();
                        counts_.dse_points += static_cast<long long>(fit.grid.size());
                        entry.fits = fit.has_best;
                        if (fit.has_best) entry.best = fit.best;
                    }
                    if (config.with_pareto) {
                        Scoped_span span("dse.pareto", kernel);
                        const Pareto_result pareto = explorer.explore_pareto();
                        counts_.dse_points += static_cast<long long>(pareto.points.size());
                        entry.pareto_points = pareto.points.size();
                        entry.pareto_front_size = pareto.front.size();
                        for (std::size_t i : pareto.front) {
                            const Arch_evaluation& e = pareto.points[i];
                            entry.front_points.push_back(
                                {to_string(e.instance), e.estimated_area_luts,
                                 e.throughput.seconds_per_frame, e.throughput.fps});
                        }
                    }
                    if (config.search_formats && entry.fits) {
                        const Format_grid& grid = format_grid();
                        entry.format_searched = true;
                        entry.format_satisfiable = true;
                        entry.format_exact = true;
                        entry.format_psnr_db = 0.0;
                        bool first = true;
                        bool any_psnr = false;
                        for (int d : entry.best.instance.depth_classes()) {
                            const Format_search_result& cell =
                                grid.at(entry.best.instance.window, d, space.max_depth)
                                    .result;
                            entry.format_satisfiable &= cell.satisfiable;
                            entry.format_exact &= cell.exact;
                            entry.fixed_format.integer_bits =
                                first ? cell.format.integer_bits
                                      : std::max(entry.fixed_format.integer_bits,
                                                 cell.format.integer_bits);
                            entry.fixed_format.frac_bits =
                                first ? cell.format.frac_bits
                                      : std::max(entry.fixed_format.frac_bits,
                                                 cell.format.frac_bits);
                            if (!cell.exact) {
                                entry.format_psnr_db =
                                    any_psnr ? std::min(entry.format_psnr_db, cell.psnr_db)
                                             : cell.psnr_db;
                                any_psnr = true;
                            }
                            first = false;
                        }
                        if (entry.format_satisfiable) {
                            Scoped_span span("dse.fit", kernel + " reprice");
                            Evaluator_options priced = evaluator_options;
                            priced.format = entry.fixed_format;
                            priced.synth.format = entry.fixed_format;
                            const Arch_evaluator pricer(lib, device, priced);
                            const Arch_evaluation repriced =
                                pricer.evaluate(entry.best.instance);
                            counts_.dse_points += 1;
                            entry.searched_area_luts = repriced.estimated_area_luts;
                            entry.searched_fps = repriced.throughput.fps;
                            entry.searched_f_max_mhz = repriced.f_max_mhz;
                        }
                    }
                    if (config.validate && entry.fits) {
                        entry.validation_max_abs_err = validate_fit(
                            config, lib, entry, shared_pool, validation_cache, counts_);
                        entry.validated = true;
                    }
                    if (config.validate_fixed && entry.fits) {
                        const Fixed_format fixed_fmt =
                            entry.format_searched && entry.format_satisfiable
                                ? entry.fixed_format
                                : config.format;
                        entry.validation_max_raw_err =
                            validate_fit_fixed(config, lib, entry, fixed_fmt, shared_pool,
                                               fixed_validation_cache, counts_);
                        entry.validated_fixed = true;
                    }
                    if (cache_ && !entry_key.empty() &&
                        cache_store(*cache_, entry_key, serialize_record(entry))) {
                        ++report.entry_stores;
                    }
                    report.entries.push_back(std::move(entry));
                }
            }
        }
        counts_.cones_built_outside += lib.cone_builds() - builds_after_prebuild;
    }
    if (config.with_pareto && config.backends.size() > 1) {
        Scoped_span span("dse.pareto", "merge");
        const std::size_t group = config.backends.size();
        for (std::size_t base = 0; base + group <= report.entries.size(); base += group) {
            Merged_front merged;
            merged.kernel = report.entries[base].kernel;
            merged.device = report.entries[base].device;
            merged.iterations = report.entries[base].iterations;
            std::vector<Merged_front::Point> candidates;
            std::vector<Design_point> dps;
            for (std::size_t k = 0; k < group; ++k) {
                const Sweep_entry& e = report.entries[base + k];
                for (const Front_point& fp : e.front_points) {
                    dps.push_back({fp.area_luts, fp.seconds_per_frame, candidates.size()});
                    candidates.push_back({e.backend, fp});
                }
            }
            for (std::size_t i : pareto_front(dps)) merged.points.push_back(candidates[i]);
            report.merged_fronts.push_back(std::move(merged));
        }
    }
    const Meters after = total_meters(libraries_);
    report.cone_builds = after.cone_builds - before.cone_builds;
    report.cone_lookups = after.cone_lookups - before.cone_lookups;
    report.synthesis_runs = after.synthesis_runs - before.synthesis_runs;
    report.synthesis_lookups = after.synthesis_lookups - before.synthesis_lookups;
    report.synthesis_cpu_seconds =
        after.synthesis_cpu_seconds - before.synthesis_cpu_seconds;
    report.synthesis_loads = after.synthesis_loads - before.synthesis_loads;
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return report;
}

}  // namespace flowbench
