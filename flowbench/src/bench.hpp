// Shared types of the flowbench workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flowbench {

struct Run_args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;  // traces and temporary cache directories
    int threads = 4;      // the "4t" width: min(4, hardware threads)
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

struct Run_result {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;

    // One user-visible operation (a sweep request, an engine run) whose
    // outputs were checked: counted as attempted, and as failed when !ok.
    void operation(bool ok, const std::string& what);
    // A consistency condition of the benchmark itself (traced vs untraced
    // counts, repeatable counters); clears `correct` when violated.
    void require(bool ok, const std::string& what);

    // An end-to-end timing in seconds: reports the median of `samples` and
    // prints every sample.
    void timing(const std::string& name, const std::vector<double>& samples);

    void e2e(const std::string& name, double value, const std::string& unit) {
        end_to_end[name] = {value, unit};
    }
    void layer(const std::string& name, double value, const std::string& unit) {
        per_layer[name] = {value, unit};
    }
};

// Prints one human-readable "name = value unit" line on stdout.
void report_line(const std::string& name, double value, const std::string& unit);
void note(const std::string& text);

double median(std::vector<double> values);

inline double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

// The measuring window of a run. Timed samples are taken while another one,
// predicted to last as long as the last, still ends inside the window, so a
// run does not overrun its seconds by a whole sample; at least kMinSamples
// are taken whatever the window.
class Window {
public:
    static constexpr std::size_t kMinSamples = 3;

    explicit Window(double seconds) : seconds_(seconds) {}

    bool another(const std::vector<double>& samples) const {
        if (samples.size() < kMinSamples) return true;
        return seconds_since(start_) + samples.back() <= seconds_;
    }

private:
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
    double seconds_;
};

// Writes `text` to `path`, creating parent directories; false on failure.
bool write_text_file(const std::string& path, const std::string& text);

class Trace;

// Writes the traced run's Chrome trace-event file and self-time table under
// args.out_dir/traces, prints the table, and sets the trace.* metrics.
void finish_trace(const Run_args& args, const Trace& trace, double traced_wall_s,
                  double untraced_wall_s, Run_result& result);

void run_zoo_cold(const Run_args& args, Run_result& result);
void run_engine_frame(const Run_args& args, Run_result& result);

}  // namespace flowbench
