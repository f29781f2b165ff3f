// Timing wrapper around islhls::real_env_hooks().
//
// The result cache performs every filesystem operation through the
// Env_hooks seam, so wrapping the real hooks and passing the wrapper in via
// Service_options::hooks (or straight to Result_cache) times cache I/O from
// outside the library. Each wrapped call adds its duration and bytes to the
// meter and, while a trace is active, records a span.
#pragma once

#include <atomic>

#include "support/env_hooks.hpp"

namespace flowbench {

struct Io_meter {
    // Mutating operations: record writes (temp file + fsync), renames, lock
    // file creation and removals.
    std::atomic<long long> write_ns{0};
    std::atomic<long long> bytes_written{0};
    // Whole-file reads (hits and misses alike).
    std::atomic<long long> read_ns{0};

    double write_s() const { return write_ns.load() * 1e-9; }
    double read_s() const { return read_ns.load() * 1e-9; }
};

// Hooks that forward to real_env_hooks() and account every call in `meter`,
// which must outlive the returned hooks.
islhls::Env_hooks metered_hooks(Io_meter& meter);

}  // namespace flowbench
