// Host fingerprint and same-run memory ceiling.
//
// Every result carries the CPU model, the hardware thread count, the probed
// last-level cache (raw and after the cgroup/per-core clamp of
// support/cache_info) and a copy bandwidth measured in the same run, so a
// reader can tell a regression from a host change. Nothing is skipped when
// the fingerprint differs between runs.
#pragma once

#include <cstddef>
#include <string>

namespace flowbench {

struct Host_info {
    std::string cpu_model;
    int cores = 0;
    double llc_raw_mib = 0.0;
    double llc_mib = 0.0;  // clamped, what the engine's budgets use
    bool llc_probed = false;
};

Host_info probe_host();

// Single-thread memcpy bandwidth between two `bytes`-sized buffers, counted
// as bytes read plus bytes written per second (the STREAM convention):
// median of `reps` timed copies after one untimed warm-up copy.
double copy_gbps(std::size_t bytes, int reps);

// Same, over caller-owned buffers (no extra allocation).
double copy_gbps(double* dst, const double* src, std::size_t count, int reps);

// Peak resident set of this process so far, in MB (10^6 bytes).
double peak_rss_mb();

}  // namespace flowbench
