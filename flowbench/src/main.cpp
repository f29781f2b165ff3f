// flowbench: end-to-end and per-layer benchmark of the islhls flow.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   flowbench --host-probe
//
// Prints human-readable "name = value unit" lines, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (the traced run also writes a Chrome trace-event file and
// a per-layer self-time table under DIR/traces). --host-probe prints the
// host fingerprint and a copy bandwidth as one JSON line.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "host.hpp"
#include "trace.hpp"

namespace flowbench {

namespace {

// Every per-layer metric the traced run reports, with its unit; a workload
// that leaves a layer idle reports it as 0. The host.* metrics come from
// the separate host probe (flowbench/run.py merges them).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"frontend.s", "s"},
    {"symexec.s", "s"},
    {"cone.build_s", "s"},
    {"cone.builds", "count"},
    {"cone.registers", "count"},
    {"cone.lookups_1t", "count"},
    {"synth.s", "s"},
    {"synth.runs", "count"},
    {"synth.hit_ratio", "ratio"},
    {"format_search.s", "s"},
    {"format_search.cells", "count"},
    {"format_search.formats_tried", "count"},
    {"dse.fit_s", "s"},
    {"dse.pareto_s", "s"},
    {"dse.streaming_s", "s"},
    {"dse.points", "count"},
    {"arch_sim.s", "s"},
    {"arch_sim.cone_executions", "count"},
    {"arch_sim.ops", "count"},
    {"golden.s", "s"},
    {"cache.write_s", "s"},
    {"cache.writes", "count"},
    {"cache.bytes_written", "bytes"},
    {"cache.read_s", "s"},
    {"cache.reads", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lock_timeouts", "count"},
    {"engine.mcells_1t", "Mcells/s"},
    {"engine.mcells_4t", "Mcells/s"},
    {"engine.fixed_mcells_1t", "Mcells/s"},
    {"engine.fixed_mcells_4t", "Mcells/s"},
    {"engine.hand_loop_mcells", "Mcells/s"},
    {"engine.copy_gbps", "GB/s"},
    {"engine.roofline_frac", "ratio"},
    {"engine.hand_loop_ratio", "ratio"},
    {"engine.bytes_computed", "bytes"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

std::string number(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    out << "}";
    return out.str();
}

Run_args parse_args(int argc, char** argv) {
    Run_args args;
    const unsigned hw = std::thread::hardware_concurrency();
    args.threads = static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
    args.out_dir = ".bench_build/flowbench/out";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    return args;
}

int host_probe() {
    const Host_info host = probe_host();
    // Two arrays of 4x the probed last-level cache (at least 256 MiB each).
    const std::size_t llc = static_cast<std::size_t>(host.llc_raw_mib * 1024 * 1024);
    const std::size_t bytes = std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
    const double gbps = copy_gbps(bytes, 5);
    std::string model;
    for (char c : host.cpu_model) {
        if (c != '"' && c != '\\') model += c;
    }
    std::cout << "{\"cpu_model\": \"" << model << "\", \"cores\": " << host.cores
              << ", \"llc_raw_mib\": " << number(host.llc_raw_mib)
              << ", \"llc_mib\": " << number(host.llc_mib)
              << ", \"llc_probed\": " << (host.llc_probed ? "true" : "false")
              << ", \"copy_array_mib\": " << number(bytes / (1024.0 * 1024.0))
              << ", \"copy_gbps\": " << number(gbps) << "}" << std::endl;
    return 0;
}

}  // namespace

void Run_result::operation(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
        failed += 1;
        std::cout << "FAILED: " << what << std::endl;
    }
}

void Run_result::require(bool ok, const std::string& what) {
    if (!ok) {
        correct = false;
        std::cout << "INCONSISTENT: " << what << std::endl;
    }
}

void Run_result::timing(const std::string& name, const std::vector<double>& samples) {
    const double mid = median(samples);
    e2e(name, mid, "s");
    std::ostringstream line;
    line << name << ": median " << number(mid) << " s of " << samples.size()
         << " samples:";
    char buf[24];
    for (double s : samples) {
        std::snprintf(buf, sizeof buf, " %.4f", s);
        line << buf;
    }
    note(line.str());
}

void report_line(const std::string& name, double value, const std::string& unit) {
    std::cout << name << " = " << number(value) << " " << unit << std::endl;
}

void note(const std::string& text) { std::cout << "# " << text << std::endl; }

double median(std::vector<double> values) {
    if (values.empty()) throw std::logic_error("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool write_text_file(const std::string& path, const std::string& text) {
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

void finish_trace(const Run_args& args, const Trace& trace, double traced_wall_s,
                  double untraced_wall_s, Run_result& result) {
    const std::string stem = args.out_dir + "/traces/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    const std::string table = trace.self_time_table(traced_wall_s);
    result.require(write_text_file(stem + ".trace.json", trace.chrome_json()) &&
                       write_text_file(stem + ".selftime.txt", table),
                   "trace files written under " + args.out_dir + "/traces");
    result.require(trace.misnested() == 0, "every span closed in nesting order");
    std::cout << table;
    note("trace written to " + stem + ".trace.json and " + stem + ".selftime.txt");
    const double covered = trace.covered_s("sweep");
    result.layer("trace.wall_s", traced_wall_s, "s");
    result.layer("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
    result.layer("trace.coverage", traced_wall_s > 0 ? covered / traced_wall_s : 0.0,
                 "ratio");
    report_line("tracing overhead", traced_wall_s - untraced_wall_s, "s");
    report_line("span coverage of the traced wall",
                traced_wall_s > 0 ? covered / traced_wall_s : 0.0, "ratio");
}

}  // namespace flowbench

int main(int argc, char** argv) {
    using namespace flowbench;
    try {
        if (argc == 2 && std::string(argv[1]) == "--host-probe") return host_probe();
        const Run_args args = parse_args(argc, argv);
        Run_result result;
        note("workload " + args.workload + ", seed " + std::to_string(args.seed) +
             ", " + std::to_string(args.threads) + " threads for the 4t runs");
        if (args.workload == "zoo_cold") {
            run_zoo_cold(args, result);
        } else if (args.workload == "engine_frame") {
            run_engine_frame(args, result);
        } else {
            throw std::invalid_argument("unknown workload '" + args.workload + "'");
        }
        result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
        report_line("setup_s", result.end_to_end.at("setup_s").value, "s");
        report_line("peak_rss_mb", result.end_to_end.at("peak_rss_mb").value, "MB");
        report_line("failed_ratio",
                    result.attempted > 0 ? static_cast<double>(result.failed) /
                                               static_cast<double>(result.attempted)
                                         : 1.0,
                    "ratio");
        std::map<std::string, Metric> metrics;
        if (args.trace) {
            for (const auto& [name, unit] : kLayerMetrics) {
                auto it = result.per_layer.find(name);
                metrics[name] = it != result.per_layer.end() ? it->second
                                                            : Metric{0.0, unit};
            }
        } else {
            metrics = result.end_to_end;
        }
        std::cout << "{\"correct\": "
                  << (result.correct && result.failed == 0 ? "true" : "false")
                  << ", \"attempted\": " << result.attempted
                  << ", \"failed\": " << result.failed
                  << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "flowbench: " << e.what() << std::endl;
        return 1;
    }
}
