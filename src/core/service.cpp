#include "core/service.hpp"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

#include "core/sweep_records.hpp"
#include "dse/architecture.hpp"
#include "dse/pareto.hpp"
#include "dse/streaming_backend.hpp"
#include "grid/frame_ops.hpp"
#include "grid/frame_set.hpp"
#include "kernels/kernels.hpp"
#include "sim/arch_sim.hpp"
#include "sim/exec_engine.hpp"
#include "sim/golden.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "symexec/executor.hpp"
#include "synth/device.hpp"

namespace islhls {

namespace {

// Initial frames + ghost golden for one (kernel, iterations) pair: the
// golden does not depend on the device, so one run computes it once per
// pair no matter how many devices validate against it.
using Validation_cache =
    std::map<std::pair<std::string, int>, std::pair<Frame_set, Frame_set>>;
// Fixed-mode twin, additionally keyed by the format (per-architecture
// formats vary across entries): initial frames + raw-word ghost golden.
using Fixed_validation_cache =
    std::map<std::tuple<std::string, int, int, int>,
             std::pair<Frame_set, Fixed_frame_result>>;

// Functional golden check of one feasible fit: simulate the fitted
// architecture on a synthetic validation frame and return the max absolute
// deviation from the ghost golden (whose engine run fans its rows across
// `pool` when given).
double validate_fit(const Sweep_config& config, Cone_library& library,
                    const Sweep_entry& entry, Thread_pool* pool,
                    Validation_cache& cache) {
    const Kernel_def& kernel = kernel_by_name(entry.kernel);
    auto it = cache.find({entry.kernel, entry.iterations});
    if (it == cache.end()) {
        Frame_set initial = kernel.make_initial(
            make_synthetic_scene(config.validation_frame_width,
                                 config.validation_frame_height,
                                 config.validation_seed));
        Frame_set golden =
            run_ghost_ir(library.step(), initial, entry.iterations, kernel.boundary,
                         Exec_options{1, 0, 0, pool});
        it = cache.emplace(std::make_pair(entry.kernel, entry.iterations),
                           std::make_pair(std::move(initial), std::move(golden)))
                 .first;
    }
    const Frame_set& initial = it->second.first;
    const Frame_set& golden = it->second.second;
    Arch_sim_options sim_options;
    sim_options.boundary = kernel.boundary;
    const Arch_sim_result sim =
        simulate_architecture(library, entry.best.instance, initial, sim_options);
    double max_err = 0.0;
    for (const std::string& field : kernel.state_fields) {
        max_err = std::max(max_err, max_abs_diff(sim.final_state.field(field),
                                                 golden.field(field)));
    }
    return max_err;
}

// Fixed-mode twin: simulate under `format` and return the max raw-word
// deviation (LSBs) from the fixed frame engine's ghost golden.
double validate_fit_fixed(const Sweep_config& config, Cone_library& library,
                          const Sweep_entry& entry, const Fixed_format& format,
                          Thread_pool* pool, Fixed_validation_cache& cache) {
    const Kernel_def& kernel = kernel_by_name(entry.kernel);
    const auto key = std::make_tuple(entry.kernel, entry.iterations,
                                     format.integer_bits, format.frac_bits);
    auto it = cache.find(key);
    if (it == cache.end()) {
        Frame_set initial = kernel.make_initial(
            make_synthetic_scene(config.validation_frame_width,
                                 config.validation_frame_height,
                                 config.validation_seed));
        Fixed_frame_result golden =
            run_ghost_ir(library.step(), initial, entry.iterations, kernel.boundary,
                         format, Exec_options{1, 0, 0, pool});
        it = cache.emplace(key, std::make_pair(std::move(initial), std::move(golden)))
                 .first;
    }
    const Frame_set& initial = it->second.first;
    const Fixed_frame_result& golden = it->second.second;
    Arch_sim_options sim_options;
    sim_options.boundary = kernel.boundary;
    sim_options.fixed_point = true;
    sim_options.format = format;
    const Arch_sim_result sim =
        simulate_architecture(library, entry.best.instance, initial, sim_options);
    // The simulator hands fixed-mode results back as from_raw values, which
    // round-trip exactly through to_raw for every format the constructor
    // admits (<= 53 bits) — so the comparison really is raw word against
    // raw word.
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

// Snapshot of every library's meters: run_impl reports deltas, so a
// long-lived service attributes cache effectiveness to the request that
// earned it rather than accumulating across requests.
struct Library_meters {
    int cone_builds = 0;
    long long cone_lookups = 0;
    int synthesis_runs = 0;
    long long synthesis_lookups = 0;
    double synthesis_cpu_seconds = 0.0;
    int synthesis_loads = 0;
};

Library_meters total_meters(
    const std::map<std::string, std::unique_ptr<Cone_library>>& libraries) {
    Library_meters total;
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

// The record stored under `key`, or nullopt when the cache misses or holds
// a record that no longer parses (schema drift degrades to a recompute).
template <class Record>
std::optional<Record> load_record(Result_cache& cache, const std::string& key) {
    const std::optional<std::string> payload = cache.load(key);
    Record record;
    std::string error;
    if (!payload || !parse_record(*payload, &record, &error)) return std::nullopt;
    return record;
}

}  // namespace

Sweep_service::Sweep_service(Service_options options)
    : options_(std::move(options)),
      hooks_(options_.hooks ? options_.hooks : &real_env_hooks()) {
    if (!options_.cache_dir.empty()) {
        cache_ = std::make_unique<Result_cache>(options_.cache_dir, hooks_);
    }
}

Sweep_service::~Sweep_service() = default;

Cone_library& Sweep_service::library(const std::string& kernel) {
    auto it = libraries_.find(kernel);
    if (it == libraries_.end()) {
        const Kernel_def& def = kernel_by_name(kernel);
        Stencil_step step = extract_stencil(def.c_source);
        auto built = std::make_unique<Cone_library>(std::move(step), def.name);
        it = libraries_.emplace(kernel, std::move(built)).first;
        const std::string key =
            kernel_ir_key(def.name, def.boundary, it->second->step());
        ir_keys_.emplace(kernel, key);
        if (cache_) {
            // Bind the library's persistence seam to the result cache: a
            // record that fails to load or parse is simply a miss (the
            // synthesizer recomputes), and store failures are absorbed by
            // the cache's own counters.
            Result_cache* cache = cache_.get();
            Synthesis_store store;
            store.load = [cache](const std::string& k) {
                return load_record<Synthesis_report>(*cache, k);
            };
            store.store = [cache](const std::string& k,
                                  const Synthesis_report& report) {
                cache->store(k, serialize_record(report));
            };
            it->second->attach_synthesis_store(std::move(store),
                                               synthesis_key_prefix(key));
        }
    }
    return *it->second;
}

const std::string& Sweep_service::ir_key(const std::string& kernel) {
    library(kernel);  // ensures frontend + symexec ran and the key exists
    return ir_keys_.at(kernel);
}

Sweep_report Sweep_service::run(const Sweep_config& config) {
    validate_config(config);
    return run_impl(config, nullptr);
}

Sweep_report Sweep_service::run_impl(const Sweep_config& config, Job_context* job) {
    const auto start = std::chrono::steady_clock::now();
    Sweep_report report;
    const Library_meters before = total_meters(libraries_);
    // One pool for the whole request: Explorer candidate fan-outs and the
    // validation runs' row fan-outs all share it.
    std::optional<Thread_pool> pool;
    if (resolve_thread_count(config.space.threads) > 1) {
        pool.emplace(config.space.threads);
    }
    Thread_pool* shared_pool = pool ? &*pool : nullptr;
    Validation_cache validation_cache;
    Fixed_validation_cache fixed_validation_cache;
    for (const std::string& kernel : config.kernels) {
        Cone_library& lib = library(kernel);
        const std::string& ikey = ir_key(kernel);
        for (const std::string& device_name : config.devices) {
            const Fpga_device& device = device_by_name(device_name);
            for (int iterations : config.iteration_counts) {
              for (const std::string& backend_name : config.backends) {
                // Deadlines and cancellation interrupt between combinations:
                // the natural unit of progress, and the unit of cache reuse
                // a retried attempt picks back up from.
                if (job != nullptr) job->checkpoint();

                std::string entry_key;
                if (cache_) {
                    entry_key = sweep_entry_key(ikey, config, device_name,
                                                iterations, backend_name);
                    if (std::optional<Sweep_entry> cached =
                            load_record<Sweep_entry>(*cache_, entry_key)) {
                        ++report.entry_hits;
                        report.entries.push_back(std::move(*cached));
                        continue;  // served without any recomputation
                    }
                    // A miss, or a checksum-valid but schema-stale record:
                    // recompute and overwrite below.
                    ++report.entry_misses;
                }

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

                // The per-(window, depth) format grid is N-independent but
                // carries device-priced per-format evaluations, so it is
                // searched once per (content, device) and shared across
                // iteration counts, backends and requests.
                auto format_grid = [&]() -> const Format_grid& {
                    const std::string gkey =
                        format_grid_key(ikey, config, device_name);
                    auto grid_it = format_grids_.find(gkey);
                    if (grid_it == format_grids_.end()) {
                        std::optional<Format_grid> loaded;
                        if (cache_) loaded = load_record<Format_grid>(*cache_, gkey);
                        if (loaded) {
                            ++report.grid_hits;
                            grid_it =
                                format_grids_.emplace(gkey, std::move(*loaded))
                                    .first;
                        } else {
                            const Kernel_def& def = kernel_by_name(kernel);
                            const Frame_set content = def.make_initial(
                                make_synthetic_scene(config.validation_frame_width,
                                                     config.validation_frame_height,
                                                     config.validation_seed));
                            Explorer grid_explorer(lib, device, evaluator_options,
                                                   space, shared_pool);
                            grid_it = format_grids_
                                          .emplace(gkey,
                                                   grid_explorer.search_formats(
                                                       content, def.boundary,
                                                       config.format_search))
                                          .first;
                            if (cache_) {
                                ++report.grid_misses;
                                cache_->store(gkey,
                                              serialize_record(grid_it->second));
                            }
                        }
                    }
                    return grid_it->second;
                };

                if (backend_name == "streaming") {
                    // The streaming multi-PE array: every candidate is one
                    // closed-form evaluation, so the fan-out that pays for a
                    // pool in the paper backend is a plain loop here. The
                    // backend shares this kernel's Cone_library, so its
                    // calibration syntheses are the ones the paper backend
                    // already paid for (or vice versa).
                    Streaming_backend streaming(lib, device, evaluator_options,
                                                space);
                    streaming.calibrate();
                    bool any = false;
                    std::vector<Backend_point> points;
                    for (const Streaming_config& candidate : streaming.configs()) {
                        const Streaming_evaluation eval =
                            streaming.evaluate(candidate);
                        if (!eval.feasible) continue;
                        if (!any || eval.fps > entry.streaming_best.fps) {
                            entry.streaming_best = eval;
                            any = true;
                        }
                        if (config.with_pareto) {
                            points.push_back({to_string(eval.config),
                                              eval.area_luts,
                                              eval.seconds_per_frame, eval.fps,
                                              ""});
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
                    if (config.search_formats && entry.fits) {
                        // A streaming PE fuses `depth` one-column cones, so
                        // the covering cell is (window 1, fused depth); the
                        // re-evaluation rebuilds the backend at the searched
                        // format, which re-derives the per-width clocks and
                        // line-buffer bits at the searched word width.
                        const Format_cell& cell = format_grid().at(
                            1, entry.streaming_best.config.depth, space.max_depth);
                        entry.format_searched = true;
                        entry.format_satisfiable = cell.result.satisfiable;
                        entry.fixed_format = cell.result.format;
                        entry.format_exact = cell.result.exact;
                        entry.format_psnr_db = cell.result.psnr_db;
                        if (entry.format_satisfiable) {
                            Evaluator_options priced = evaluator_options;
                            priced.format = entry.fixed_format;
                            priced.synth.format = entry.fixed_format;
                            Streaming_backend priced_streaming(lib, device,
                                                               priced, space);
                            priced_streaming.calibrate();
                            const Streaming_evaluation re =
                                priced_streaming.evaluate(
                                    entry.streaming_best.config);
                            entry.searched_area_luts = re.area_luts;
                            entry.searched_fps = re.fps;
                            entry.searched_f_max_mhz = re.f_max_mhz;
                        }
                    }
                    if (cache_ && !entry_key.empty() &&
                        cache_->store(entry_key, serialize_record(entry))) {
                        ++report.entry_stores;
                    }
                    report.entries.push_back(std::move(entry));
                    continue;
                }

                Explorer explorer(lib, device, evaluator_options, space,
                                  shared_pool);
                const Fit_result fit = explorer.fit_device();
                entry.fits = fit.has_best;
                if (fit.has_best) entry.best = fit.best;
                if (config.with_pareto) {
                    const Pareto_result pareto = explorer.explore_pareto();
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
                    // Narrowest format covering every depth class of the
                    // fit: integer and fraction bits each take the max over
                    // the classes' searched formats (more bits never hurt).
                    // The covering point is exact only when every class is;
                    // the reported PSNR is the worst over the non-exact
                    // classes (each achieves at least it at the covering
                    // width) — exact classes contribute no decibel number,
                    // they are flagged, not folded in as a sentinel.
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
                                any_psnr ? std::min(entry.format_psnr_db,
                                                    cell.psnr_db)
                                         : cell.psnr_db;
                            any_psnr = true;
                        }
                        first = false;
                    }
                    // Re-run the full evaluation at the searched width: a
                    // fresh evaluator over the same library (whose synthesis
                    // cache is format-aware, so calibration syntheses at the
                    // new width memoize across N values) re-prices area,
                    // f_max, cycles and fps — the format column is a true
                    // design point, not an area-only re-price. An
                    // unsatisfiable search leaves only a failed width behind
                    // — pricing at it would be meaningless, so the columns
                    // stay empty instead.
                    if (entry.format_satisfiable) {
                        Evaluator_options priced = evaluator_options;
                        priced.format = entry.fixed_format;
                        priced.synth.format = entry.fixed_format;
                        const Arch_evaluator pricer(lib, device, priced);
                        const Arch_evaluation repriced =
                            pricer.evaluate(entry.best.instance);
                        entry.searched_area_luts = repriced.estimated_area_luts;
                        entry.searched_fps = repriced.throughput.fps;
                        entry.searched_f_max_mhz = repriced.f_max_mhz;
                    }
                }
                if (config.validate && entry.fits) {
                    entry.validation_max_abs_err = validate_fit(
                        config, lib, entry, shared_pool, validation_cache);
                    entry.validated = true;
                }
                if (config.validate_fixed && entry.fits) {
                    const Fixed_format fixed_fmt =
                        entry.format_searched && entry.format_satisfiable
                            ? entry.fixed_format
                            : config.format;
                    entry.validation_max_raw_err =
                        validate_fit_fixed(config, lib, entry, fixed_fmt,
                                           shared_pool, fixed_validation_cache);
                    entry.validated_fixed = true;
                }
                if (cache_ && !entry_key.empty() &&
                    cache_->store(entry_key, serialize_record(entry))) {
                    ++report.entry_stores;
                }
                report.entries.push_back(std::move(entry));
              }
            }
        }
    }
    // Cross-backend merged fronts: with more than one backend and a Pareto
    // sweep, the consecutive entries of each combination fold into one front
    // via the front-of-fronts identity front(A + B) == front(front(A) +
    // front(B)) — the entries' cached front_points are all it needs, so a
    // fully warm run rebuilds these without recomputing anything.
    if (config.with_pareto && config.backends.size() > 1) {
        const std::size_t group = config.backends.size();
        for (std::size_t base = 0; base + group <= report.entries.size();
             base += group) {
            Merged_front merged;
            merged.kernel = report.entries[base].kernel;
            merged.device = report.entries[base].device;
            merged.iterations = report.entries[base].iterations;
            std::vector<Merged_front::Point> candidates;
            std::vector<Design_point> dps;
            for (std::size_t k = 0; k < group; ++k) {
                const Sweep_entry& e = report.entries[base + k];
                for (const Front_point& fp : e.front_points) {
                    dps.push_back({fp.area_luts, fp.seconds_per_frame,
                                   candidates.size()});
                    candidates.push_back({e.backend, fp});
                }
            }
            for (std::size_t i : pareto_front(dps)) {
                merged.points.push_back(candidates[i]);
            }
            report.merged_fronts.push_back(std::move(merged));
        }
    }
    // Meter deltas over the distinct resident libraries — not per occurrence
    // in config.kernels, which may repeat a name.
    const Library_meters after = total_meters(libraries_);
    report.cone_builds = after.cone_builds - before.cone_builds;
    report.cone_lookups = after.cone_lookups - before.cone_lookups;
    report.synthesis_runs = after.synthesis_runs - before.synthesis_runs;
    report.synthesis_lookups = after.synthesis_lookups - before.synthesis_lookups;
    report.synthesis_cpu_seconds =
        after.synthesis_cpu_seconds - before.synthesis_cpu_seconds;
    report.synthesis_loads = after.synthesis_loads - before.synthesis_loads;
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return report;
}

std::vector<Request_outcome> Sweep_service::run_requests(
    const std::vector<Sweep_config>& requests) {
    // Request-level execution is serial (pool = nullptr) so batch reports
    // are deterministic; each request parallelizes internally through its
    // own exploration pool.
    Job_queue_options queue_options;
    queue_options.deadline_ms = options_.deadline_ms;
    queue_options.retry = options_.retry;
    queue_options.hooks = hooks_;
    Job_queue queue(queue_options);
    std::map<std::string, Sweep_report> reports;
    for (const Sweep_config& config : requests) {
        std::string key = sweep_request_key(config);
        queue.submit(key, [this, config, key, &reports](Job_context& job) {
            validate_config(config);
            reports[key] = run_impl(config, &job);
        });
    }
    std::vector<Job_outcome> outcomes = queue.drain();
    std::vector<Request_outcome> results;
    results.reserve(outcomes.size());
    for (Job_outcome& outcome : outcomes) {
        Request_outcome result;
        result.key = std::move(outcome.key);
        result.ok = outcome.ok;
        result.kind = outcome.kind;
        result.message = std::move(outcome.message);
        result.attempts = outcome.attempts;
        result.deduplicated = outcome.deduplicated;
        if (result.ok) result.report = reports.at(result.key);
        results.push_back(std::move(result));
    }
    return results;
}

}  // namespace islhls
