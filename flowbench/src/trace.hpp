// Span recorder for the traced benchmark runs.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions; nothing inside the islhls library is
// instrumented. Spans nest per thread: a span opened while another span of
// the same thread is open becomes its child, so a layer's self time is its
// duration minus the time its children cover. Spans stay in memory until
// the run ends and are then written as Chrome trace-event JSON and as a
// per-layer self-time table.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace flowbench {

class Trace {
public:
    struct Span {
        std::string name;
        std::string detail;  // free-form attribute (kernel, window/depth, ...)
        int thread = 0;
        int parent = -1;     // index of the enclosing span on the same thread
        double start_us = 0.0;
        double end_us = -1.0;  // < start_us while still open
    };

    struct Layer_time {
        double total_s = 0.0;  // summed durations (nested same-name spans too)
        double self_s = 0.0;   // durations minus child spans
        long long count = 0;
    };

    Trace();

    // Opens a span on the calling thread and returns its id.
    int begin(std::string name, std::string detail = {});
    // Closes span `id`, which must be the innermost open span of the
    // thread; a span closed out of order is counted in misnested() instead.
    void end(int id);
    long long misnested() const;

    // Microseconds since the recorder was created.
    double now_us() const;

    // Per-name totals over every closed span.
    std::map<std::string, Layer_time> layer_times() const;

    // Sum of the self times of every span not named `root` — the part of
    // the traced wall that some layer span accounts for.
    double covered_s(const std::string& root) const;

    // Chrome trace-event JSON ("X" complete events), loadable offline in
    // chrome://tracing or Perfetto.
    std::string chrome_json() const;

    // Fixed-width per-layer table: name, count, total, self, self share.
    std::string self_time_table(double wall_s) const;

private:
    mutable std::mutex mutex_;  // guards spans_ and misnested_
    std::vector<Span> spans_;
    long long misnested_ = 0;
    std::chrono::steady_clock::time_point origin_;
};

// The recorder the traced run installs; nullptr while tracing is off, in
// which case Scoped_span and the helpers below do nothing.
extern Trace* g_trace;

class Scoped_span {
public:
    explicit Scoped_span(const char* name, std::string detail = {});
    ~Scoped_span();
    Scoped_span(const Scoped_span&) = delete;
    Scoped_span& operator=(const Scoped_span&) = delete;

private:
    int id_ = -1;
};

}  // namespace flowbench
