// Long-lived, fault-tolerant sweep service.
//
// Sweep_service is the process-resident owner of everything a sweep needs
// more than once: per-kernel Cone_libraries, per-configuration format-search
// grids, and — when a cache directory is given — a crash-safe,
// content-addressed result cache persisting sweep entries, format grids and
// virtual-synthesis reports across processes. A warm cache serves a repeated
// request without running a single synthesis or format search, and the
// report's counters prove it.
//
// Robustness contract:
//   - The cache is advisory: every load either returns a record that was
//     written atomically and passes checksum + schema validation, or the
//     service recomputes. Corrupt records are quarantined, never trusted,
//     and never abort a request.
//   - Batch mode (run_requests) drains requests through a Job_queue:
//     identical requests (by content key) execute once, each attempt gets a
//     deadline on the injected clock, and transient faults (io, timeout)
//     retry with backoff. Every outcome is structured — one bad request
//     cannot take down the batch.
//   - All filesystem and clock traffic goes through Env_hooks, so the fault
//     harness (tests/test_fault_injection.cpp) can exercise torn writes,
//     ENOSPC and stuck jobs deterministically.
//
// It is the one front door for sweeps: a one-shot caller constructs a
// default (in-memory) service and calls run(config) once.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "support/env_hooks.hpp"
#include "support/job_queue.hpp"
#include "support/result_cache.hpp"

namespace islhls {

struct Service_options {
    // Directory of the persistent result cache; empty = in-memory only.
    // Created on first use; a path that exists but is not a usable
    // directory fails construction with a named Io_error.
    std::string cache_dir;
    const Env_hooks* hooks = nullptr;  // filesystem + clock seam
    // Batch mode: per-attempt deadline (0 = none) and transient-fault
    // retry policy for each request.
    std::int64_t deadline_ms = 0;
    Retry_policy retry;
};

// One batch request's result: either a report or a structured failure.
struct Request_outcome {
    std::string key;      // content key — equal keys shared one execution
    bool ok = false;
    Error_kind kind = Error_kind::internal;  // meaningful when !ok
    std::string message;                     // meaningful when !ok
    int attempts = 0;
    bool deduplicated = false;
    Sweep_report report;  // valid when ok
};

class Sweep_service {
public:
    // Throws Io_error when cache_dir exists but cannot be used.
    explicit Sweep_service(Service_options options = {});
    ~Sweep_service();

    // Runs one validated request, consulting and filling the result cache.
    // Throws Islhls_error (kind user) for invalid configs; cache trouble
    // degrades to recompute instead of throwing.
    Sweep_report run(const Sweep_config& config);

    // Batch front: queue every request, dedup identical ones, drain with
    // deadlines + retry. Never throws for per-request failures — each
    // outcome carries its own taxonomy kind. Outcomes are request-ordered.
    std::vector<Request_outcome> run_requests(
        const std::vector<Sweep_config>& requests);

    // The resident per-kernel cache: frontend + symbolic execution happen on
    // first use; cones and syntheses memoize for the service's lifetime.
    Cone_library& library(const std::string& kernel);

    // The persistent cache, or nullptr when running in-memory only.
    Result_cache* cache() { return cache_ ? cache_.get() : nullptr; }
    const Env_hooks& hooks() const { return *hooks_; }
    const Service_options& options() const { return options_; }

private:
    // The actual sweep; `job` (when batch-driven) is checkpointed between
    // combinations so deadlines and cancellation interrupt long requests at
    // clean boundaries.
    Sweep_report run_impl(const Sweep_config& config, Job_context* job);

    // The kernel's content identity, computed once per kernel (requires the
    // library, i.e. frontend + symexec, on first call).
    const std::string& ir_key(const std::string& kernel);

    Service_options options_;
    const Env_hooks* hooks_;
    std::unique_ptr<Result_cache> cache_;
    std::map<std::string, std::unique_ptr<Cone_library>> libraries_;
    std::map<std::string, std::string> ir_keys_;
    // Format grids keyed by their full content key (kernel identity plus
    // every grid-affecting option), so requests with different search
    // settings never share a grid.
    std::map<std::string, Format_grid> format_grids_;
};

}  // namespace islhls
