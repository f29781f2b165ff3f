// The zoo_cold workload. Its untraced run times cold sweeps on fresh
// in-memory services; its traced run adds the result cache (a cold pass and
// warm replays) and the validated request.
//
// Every request runs the 13-kernel zoo on xc6vlx760 at N=4 over a 320x240
// modeled frame with the paper and streaming backends and the
// per-architecture format search, through the public Sweep_service. The
// traced run replays the same requests through Replay_service (replay.hpp)
// to time each layer.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/service.hpp"
#include "io_meter.hpp"
#include "kernels/kernels.hpp"
#include "replay.hpp"
#include "support/result_cache.hpp"
#include "trace.hpp"

namespace flowbench {

using islhls::Service_options;
using islhls::Sweep_config;
using islhls::Sweep_report;
using islhls::Sweep_service;
using Clock = std::chrono::steady_clock;

namespace {

Sweep_config zoo_config(const Run_args& args, int threads) {
    Sweep_config config;
    config.kernels = islhls::kernel_names();
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {4};
    config.frame_width = 320;
    config.frame_height = 240;
    config.backends = {"paper", "streaming"};
    config.search_formats = true;
    config.space.threads = threads;
    // The workload's input content: the synthetic scenes behind the format
    // search (and the validation frames) come from the benchmark seed.
    config.validation_seed = args.seed;
    return config;
}

// The validated request: the same request plus the Pareto sweep and both
// golden checks on an enlarged validation frame.
Sweep_config validate_config(const Run_args& args, int threads, bool timed) {
    Sweep_config config = zoo_config(args, threads);
    config.validation_frame_width = 160;
    config.validation_frame_height = 120;
    if (timed) {
        config.with_pareto = true;
        config.validate = true;
        config.validate_fixed = true;
    }
    return config;
}

int expected_cones(const Sweep_config& config) {
    return static_cast<int>(config.kernels.size()) * config.space.max_window *
           config.space.max_depth;
}

// An in-memory service with every kernel library built (frontend +
// symbolic execution): the set-up a resident service pays once.
std::unique_ptr<Sweep_service> fresh_service(const Sweep_config& config,
                                             std::vector<double>& setups) {
    const auto start = Clock::now();
    auto service = std::make_unique<Sweep_service>();
    for (const std::string& kernel : config.kernels) service->library(kernel);
    setups.push_back(seconds_since(start));
    return service;
}

struct Timed_report {
    Sweep_report report;
    double wall_s = 0.0;
};

template <typename Service>
Timed_report timed_run(Service& service, const Sweep_config& config) {
    const auto start = Clock::now();
    Timed_report out;
    out.report = service.run(config);
    out.wall_s = seconds_since(start);
    return out;
}

std::string temp_dir(const Run_args& args, const std::string& tag) {
    static int counter = 0;
    const std::string dir = args.out_dir + "/tmp/" + args.workload + "-" +
                            std::to_string(args.seed) + "-" + tag + "-" +
                            std::to_string(counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(std::filesystem::path(dir).parent_path());
    return dir;
}

// Set-up samples taken after each timed sample, so that they spread over
// the window like the timed samples do.
constexpr int kSetupsPerSample = 16;

// Set-up of a fresh in-memory service, sampled kSetupsPerSample times.
void sample_setups(const Sweep_config& config, std::vector<double>& setups) {
    for (int i = 0; i < kSetupsPerSample; ++i) fresh_service(config, setups);
}

void set_setup(Run_result& result, std::vector<double>& setups) {
    result.e2e("setup_s", median(setups), "s");
    note("setup_s: median of " + std::to_string(setups.size()) + " samples, min " +
         std::to_string(*std::min_element(setups.begin(), setups.end())) + ", max " +
         std::to_string(*std::max_element(setups.begin(), setups.end())));
}

// Per-layer self times of a traced replay.
void layer_times_to_metrics(const Trace& trace, Run_result& result) {
    const auto times = trace.layer_times();
    auto self = [&](const char* name) {
        auto it = times.find(name);
        return it == times.end() ? 0.0 : it->second.self_s;
    };
    result.layer("frontend.s", self("frontend"), "s");
    result.layer("symexec.s", self("symexec"), "s");
    result.layer("cone.build_s", self("cone.build"), "s");
    result.layer("synth.s", self("synth"), "s");
    result.layer("format_search.s", self("format_search"), "s");
    result.layer("dse.fit_s", self("dse.fit"), "s");
    result.layer("dse.pareto_s", self("dse.pareto"), "s");
    result.layer("dse.streaming_s", self("dse.streaming"), "s");
    result.layer("arch_sim.s", self("arch_sim"), "s");
    result.layer("golden.s", self("golden"), "s");
}

// Replay work counters of one traced request (deltas over `before`).
void replay_counts_to_metrics(const Replay_counts& before, const Replay_counts& after,
                              const Sweep_report& report, Run_result& result) {
    result.layer("cone.builds", report.cone_builds, "count");
    result.layer("cone.registers",
                 static_cast<double>(after.cone_registers - before.cone_registers),
                 "count");
    result.layer("synth.runs", report.synthesis_runs, "count");
    result.layer("synth.hit_ratio",
                 report.synthesis_lookups > 0
                     ? 1.0 - static_cast<double>(report.synthesis_runs) /
                                 static_cast<double>(report.synthesis_lookups)
                     : 0.0,
                 "ratio");
    result.layer("format_search.cells",
                 static_cast<double>(after.format_cells - before.format_cells), "count");
    result.layer("format_search.formats_tried",
                 static_cast<double>(after.formats_tried - before.formats_tried),
                 "count");
    result.layer("dse.points", static_cast<double>(after.dse_points - before.dse_points),
                 "count");
    result.layer("arch_sim.cone_executions",
                 static_cast<double>(after.arch_sim_cone_executions -
                                     before.arch_sim_cone_executions),
                 "count");
    result.layer("arch_sim.ops",
                 static_cast<double>(after.arch_sim_ops - before.arch_sim_ops), "count");
}

// The traced request's cone lookups as the service would count them: the
// replay's up-front grid build adds lookups the service does not make.
long long service_lookups(const Sweep_report& report, const Replay_counts& before,
                          const Replay_counts& after) {
    return report.cone_lookups - (after.prebuild_lookups - before.prebuild_lookups);
}

void require_same_work(Run_result& result, const char* what, const Sweep_report& traced,
                       const Sweep_report& untraced) {
    result.require(islhls::report_table(traced) == islhls::report_table(untraced),
                   std::string(what) + ": traced report table equals the untraced one");
    result.require(traced.cone_builds == untraced.cone_builds,
                   std::string(what) + ": traced cone builds equal untraced (" +
                       std::to_string(traced.cone_builds) + " vs " +
                       std::to_string(untraced.cone_builds) + ")");
    result.require(traced.synthesis_runs == untraced.synthesis_runs,
                   std::string(what) + ": traced syntheses equal untraced (" +
                       std::to_string(traced.synthesis_runs) + " vs " +
                       std::to_string(untraced.synthesis_runs) + ")");
    result.require(traced.entry_stores == untraced.entry_stores &&
                       traced.entry_hits == untraced.entry_hits &&
                       traced.grid_misses == untraced.grid_misses &&
                       traced.grid_hits == untraced.grid_hits,
                   std::string(what) + ": traced cache entry/grid counts equal untraced");
}

void print_counts(const char* what, const Sweep_report& r) {
    note(std::string(what) + ": " + std::to_string(r.entries.size()) + " entries, " +
         std::to_string(r.cone_builds) + " cones built, " +
         std::to_string(r.cone_lookups) + " cone lookups, " +
         std::to_string(r.synthesis_runs) + " syntheses, " +
         std::to_string(r.entry_hits) + " entry hits, " +
         std::to_string(r.entry_stores) + " entry stores");
}

// Hash of the deterministic report table, printed so runs of one seed can
// be compared across processes.
std::string table_digest(const Sweep_report& report) {
    const std::string table = islhls::report_table(report);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(islhls::fnv1a64(table)));
    return buf;
}

}  // namespace

// --- the validated request -------------------------------------------------------

namespace {

bool validated_exact(const Sweep_report& report) {
    int checked = 0;
    for (const islhls::Sweep_entry& e : report.entries) {
        if (!e.fits || e.backend != "paper") continue;
        if (!e.validated || !e.validated_fixed) return false;
        if (e.validation_max_abs_err != 0.0 || e.validation_max_raw_err != 0.0) {
            return false;
        }
        ++checked;
    }
    return checked > 0;
}

struct Traced_request {
    double untraced_wall_s = 0.0;
    double traced_wall_s = 0.0;
    Replay_counts before;  // replay counts around the traced request
    Replay_counts after;
};

// The validated request (with_pareto, validate, validate_fixed on a 160x120
// validation frame) on resident services warmed with the same request minus
// those three: no cones or syntheses, so arch-sim, the ghost golden and the
// Pareto DSE do the work. Runs it untraced at 1 and args.threads threads,
// then replays it at 1 thread into `trace`, checking every result.
Traced_request trace_validated_request(const Run_args& args, Trace& trace,
                                       Run_result& result) {
    const Sweep_config warmup = validate_config(args, args.threads, false);
    const Sweep_config one = validate_config(args, 1, true);
    const Sweep_config four = validate_config(args, args.threads, true);
    auto timed_ok = [](const Sweep_report& r) {
        return validated_exact(r) && r.cone_builds == 0 && r.synthesis_runs == 0;
    };

    Sweep_service service;
    service.run(warmup);
    const Timed_report untraced = timed_run(service, one);
    result.operation(timed_ok(untraced.report),
                     "validated request: exact golden checks, 0 cones, 0 syntheses");
    const Timed_report threaded = timed_run(service, four);
    result.operation(timed_ok(threaded.report) && islhls::report_table(threaded.report) ==
                                                      islhls::report_table(untraced.report),
                     "validated request at " + std::to_string(args.threads) +
                         " threads: exact golden checks, the 1-thread table");
    report_line("validated_1t_s", untraced.wall_s, "s (one untraced request)");
    report_line("validated_4t_s", threaded.wall_s, "s (one untraced request)");

    Traced_request out;
    out.untraced_wall_s = untraced.wall_s;
    Replay_service replay("", nullptr);
    replay.run(warmup);  // warm-up, untraced
    out.before = replay.counts();
    g_trace = &trace;
    const auto start = Clock::now();
    const Sweep_report traced = replay.run(one);
    out.traced_wall_s = seconds_since(start);
    g_trace = nullptr;
    out.after = replay.counts();
    result.operation(timed_ok(traced), "traced validated request");
    require_same_work(result, "validated request", traced, untraced.report);
    result.require(service_lookups(traced, out.before, out.after) ==
                       untraced.report.cone_lookups,
                   "validated request: 1-thread replay cone lookups equal the service's");
    print_counts("traced validated request", traced);
    return out;
}

}  // namespace

// --- zoo_cold ---------------------------------------------------------------------

namespace {

constexpr int kWarmReplays = 5;  // after each cache cold pass of the traced run

bool warm_ok(const Sweep_report& warm, const std::string& cold_table) {
    return warm.entry_hits == static_cast<int>(warm.entries.size()) &&
           warm.entry_misses == 0 && warm.cone_builds == 0 &&
           warm.synthesis_runs == 0 && islhls::report_table(warm) == cold_table;
}

bool verify_clean(const std::string& dir, Run_result& result) {
    islhls::Result_cache cache(dir);
    const islhls::Result_cache::Verify_report verify = cache.verify();
    result.require(verify.records_corrupt == 0 && verify.records_ok > 0,
                   "cache verify: " + std::to_string(verify.records_ok) + " ok, " +
                       std::to_string(verify.records_corrupt) + " corrupt");
    return verify.records_corrupt == 0;
}

}  // namespace

void run_zoo_cold(const Run_args& args, Run_result& result) {
    const Sweep_config one = zoo_config(args, 1);
    const Sweep_config four = zoo_config(args, args.threads);
    std::vector<double> setups;

    if (!args.trace) {
        // 1-thread cold sweeps on fresh in-memory services for the window;
        // each must repeat the first one's table and synthesis count.
        std::vector<double> walls;
        std::optional<Sweep_report> first;
        const Window window(args.seconds);
        while (window.another(walls)) {
            {
                auto service = fresh_service(one, setups);
                const Timed_report run = timed_run(*service, one);
                walls.push_back(run.wall_s);
                if (!first) {
                    first = run.report;
                    print_counts("cold sweep", run.report);
                    note("report table digest " + table_digest(run.report));
                }
                result.operation(
                    run.report.cone_builds == expected_cones(one) &&
                        run.report.synthesis_runs == first->synthesis_runs &&
                        islhls::report_table(run.report) == islhls::report_table(*first),
                    "cold sweep at 1 thread: " + std::to_string(expected_cones(one)) +
                        " cones, the first sweep's syntheses and table");
            }
            sample_setups(one, setups);
        }
        set_setup(result, setups);
        result.timing("wall_s", walls);
        report_line("sweep_1t_s", median(walls), "s");
        return;
    }

    // Traced: a cold sweep at args.threads on an in-memory service, which
    // must repeat the 1-thread table. Then a 1-thread cold pass into an
    // empty cache plus warm replays, once untraced through the service and
    // once traced through the replay with metered hooks. Then an in-memory
    // replay at args.threads whose counts and table must repeat the 1-thread
    // ones exactly. Last, the validated request, traced into the same trace:
    // the only place arch-sim, the golden runs and the Pareto DSE are timed.
    // The cache's fsync-bound writes vary too much on a shared disk to time
    // the cold pass with a cache as the workload's wall.
    sample_setups(one, setups);
    set_setup(result, setups);
    Timed_report threaded;
    {
        Sweep_service service;
        threaded = timed_run(service, four);
    }
    report_line("sweep_4t_s", threaded.wall_s, "s (one untraced request)");

    const std::string ref_dir = temp_dir(args, "ref");
    const auto ref_start = Clock::now();
    Sweep_report untraced_cold;
    long long untraced_writes = 0;
    {
        Service_options options;
        options.cache_dir = ref_dir;
        Sweep_service service(options);
        untraced_cold = service.run(one);
        untraced_writes = service.cache()->stats().stores;
    }
    const double cold_ref_wall = seconds_since(ref_start);
    const std::string cold_table = islhls::report_table(untraced_cold);
    result.operation(islhls::report_table(threaded.report) == cold_table &&
                         threaded.report.cone_builds == expected_cones(four),
                     "cold sweep at " + std::to_string(args.threads) +
                         " threads: the 1-thread table");
    std::vector<double> warm_walls;
    for (int i = 0; i < kWarmReplays; ++i) {
        // A warm replay is one request on a fresh service: its libraries
        // (frontend + symexec) are rebuilt for the keys, then every entry
        // loads from the cache. Opening the cache (a probe write) stays
        // untimed.
        Service_options options;
        options.cache_dir = ref_dir;
        Sweep_service warm_service(options);
        const Timed_report warm = timed_run(warm_service, one);
        warm_walls.push_back(warm.wall_s);
        result.operation(warm_ok(warm.report, cold_table), "untraced warm replay");
    }
    const double untraced_wall = seconds_since(ref_start);
    std::filesystem::remove_all(ref_dir);
    report_line("cache_cold_1t_s", cold_ref_wall, "s (one untraced cold pass into the cache)");
    report_line("warm_replay_ms", 1e3 * median(warm_walls), "ms (untraced, median)");

    const std::string dir = temp_dir(args, "traced");
    Io_meter meter;
    const islhls::Env_hooks hooks = metered_hooks(meter);
    Trace trace;
    g_trace = &trace;
    const auto traced_start = Clock::now();
    islhls::Result_cache::Stats stats;
    Sweep_report traced_cold;
    Replay_counts cold_counts;
    {
        Replay_service replay(dir, &hooks);
        traced_cold = replay.run(one);
        cold_counts = replay.counts();
        stats = replay.cache()->stats();
    }
    const long long traced_writes = stats.stores;
    std::vector<Sweep_report> warm_reports;
    for (int i = 0; i < kWarmReplays; ++i) {
        Replay_service warm(dir, &hooks);
        warm_reports.push_back(warm.run(one));
        const islhls::Result_cache::Stats s = warm.cache()->stats();
        stats.hits += s.hits;
        stats.misses += s.misses;
        stats.stores += s.stores;
        stats.lock_timeouts += s.lock_timeouts;
    }
    const double traced_wall = seconds_since(traced_start);
    g_trace = nullptr;

    result.operation(traced_cold.entry_stores ==
                         static_cast<int>(traced_cold.entries.size()),
                     "traced cold pass");
    for (const Sweep_report& warm : warm_reports) {
        result.operation(warm_ok(warm, cold_table), "traced warm replay");
    }
    result.operation(verify_clean(dir, result), "cache verify after traced replays");
    std::filesystem::remove_all(dir);
    require_same_work(result, "cache cold pass", traced_cold, untraced_cold);
    result.require(traced_writes == untraced_writes,
                   "traced cold-pass records equal untraced (" +
                       std::to_string(traced_writes) + " vs " +
                       std::to_string(untraced_writes) + ")");
    const long long lookups = service_lookups(traced_cold, {}, cold_counts);
    result.require(lookups == untraced_cold.cone_lookups,
                   "1-thread replay cone lookups equal the service's");
    result.require(cold_counts.cones_built_outside == 0,
                   "every cone is built inside the cone.build spans");
    print_counts("traced cold pass", traced_cold);

    Replay_service replay4("", nullptr);
    const Sweep_report again = replay4.run(four);
    result.operation(islhls::report_table(again) == cold_table,
                     std::to_string(args.threads) +
                         "-thread in-memory replay: the 1-thread table");
    result.require(again.cone_builds == traced_cold.cone_builds &&
                       again.synthesis_runs == traced_cold.synthesis_runs &&
                       replay4.counts().formats_tried == cold_counts.formats_tried &&
                       replay4.counts().format_cells == cold_counts.format_cells,
                   "cone builds, syntheses and formats tried repeat at " +
                       std::to_string(args.threads) + " threads");

    const Traced_request validated = trace_validated_request(args, trace, result);

    layer_times_to_metrics(trace, result);
    replay_counts_to_metrics(Replay_counts{}, cold_counts, traced_cold, result);
    // The validated request builds no cones and runs no syntheses or format
    // searches (checked above); it adds its Pareto points and arch-sim work.
    const Replay_counts& v0 = validated.before;
    const Replay_counts& v1 = validated.after;
    auto add = [&](const char* name, long long value) {
        result.per_layer.at(name).value += static_cast<double>(value);
    };
    add("dse.points", v1.dse_points - v0.dse_points);
    add("arch_sim.cone_executions", v1.arch_sim_cone_executions - v0.arch_sim_cone_executions);
    add("arch_sim.ops", v1.arch_sim_ops - v0.arch_sim_ops);
    result.layer("cone.lookups_1t", static_cast<double>(lookups), "count");
    note("cone.lookups_1t is schedule-dependent at more than one thread: it is "
         "taken from the 1-thread replay only and is not an exact count");
    result.layer("cache.write_s", meter.write_s(), "s");
    result.layer("cache.writes", static_cast<double>(stats.stores), "count");
    result.layer("cache.bytes_written", static_cast<double>(meter.bytes_written.load()),
                 "bytes");
    result.layer("cache.read_s", meter.read_s(), "s");
    result.layer("cache.reads", static_cast<double>(stats.hits + stats.misses), "count");
    result.layer("cache.hit_ratio",
                 stats.hits + stats.misses > 0
                     ? static_cast<double>(stats.hits) /
                           static_cast<double>(stats.hits + stats.misses)
                     : 0.0,
                 "ratio");
    result.layer("cache.lock_timeouts", static_cast<double>(stats.lock_timeouts),
                 "count");
    finish_trace(args, trace, traced_wall + validated.traced_wall_s,
                 untraced_wall + validated.untraced_wall_s, result);
}

}  // namespace flowbench
