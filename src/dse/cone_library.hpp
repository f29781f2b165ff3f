// Cache of built cones and their (virtual) synthesis results for one kernel.
//
// Building a cone unrolls only the values no earlier cone of the kernel has
// unrolled (the step memoizes them for the pool's lifetime, so a whole
// 1..W x 1..D grid unrolls no more than its largest cone) and then lowers its
// program in passes linear in its size. Synthesizing a cone is what costs:
// the virtual synthesizer models tool runtimes of minutes to hours. The
// library keeps both memoized and tracks the cumulative simulated synthesis
// CPU time, so the flow can report how much the estimation-based exploration
// saves over synthesizing every design point.
//
// The library is safe for concurrent callers: lookups take a shared lock;
// cone cache misses build under the exclusive lock (building extends the
// kernel's shared expression pool and unroll memo, so it must serialize),
// while synthesis misses run the virtual synthesizer outside any lock (it
// only reads the cone's immutable register program) and insert first-wins —
// racing threads may duplicate a deterministic synthesis but never diverge.
// A fresh report is inserted before it is written to the persistent store,
// so no racing thread can load it back and count it as a load. Returned
// references stay valid for the library's lifetime (node-based storage).
// The synthesis meter is derived from the memoization map in key order, so
// its value is independent of the schedule that filled the cache.
//
// One caveat for callers holding references into step(): a cone cache miss
// extends the shared expression pool, so unlocked pool reads (e.g.
// Stencil_step::footprint()) must not race cone() misses — pre-build the
// cone grid first, as Arch_evaluator::calibrate() does.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cone/cone.hpp"
#include "symexec/stencil_step.hpp"
#include "synth/device.hpp"
#include "synth/synthesizer.hpp"

namespace islhls {

// Optional persistence seam for synthesis results. The library stays
// storage-agnostic: the owner (core/service.hpp) binds these to its
// content-addressed result cache. `load` returns a report previously stored
// under `key` or nullopt; `store` persists one best-effort (failures are the
// store's problem, never the library's). Both must be thread-safe.
struct Synthesis_store {
    std::function<std::optional<Synthesis_report>(const std::string& key)> load;
    std::function<void(const std::string& key, const Synthesis_report&)> store;
};

class Cone_library {
public:
    // Takes ownership of the stencil step (the shared expression pool).
    Cone_library(Stencil_step step, std::string kernel_name);

    const std::string& kernel_name() const { return kernel_name_; }
    const Stencil_step& step() const { return step_; }
    Stencil_step& step() { return step_; }

    // Builds (or returns the cached) square-window cone.
    const Cone& cone(int window, int depth);
    const Cone_stats& stats(int window, int depth);

    // Runs (or returns the cached) virtual synthesis of the cone on `device`.
    // Every *new* synthesis adds its simulated tool runtime to the meter.
    const Synthesis_report& synthesis(int window, int depth, const Fpga_device& device,
                                      const Synth_options& options);

    // Attaches a persistent synthesis store: synthesis() misses consult it
    // before running the virtual synthesizer, and fresh results are written
    // back through it. `key_prefix` pins the kernel's content identity so
    // two kernels (or two versions of one) never share records.
    void attach_synthesis_store(Synthesis_store store, std::string key_prefix);

    // Number of distinct syntheses performed and their cumulative simulated
    // CPU time (sum over the cache in key order — schedule-independent).
    // Reports loaded from the persistent store count as synthesis_loads(),
    // not runs, and contribute no CPU time: they were paid for in an
    // earlier process.
    int synthesis_runs() const;
    int synthesis_loads() const;
    double synthesis_cpu_seconds() const;

    // Simulated tool runtime of each cached synthesis, in key order. Feed to
    // lpt_makespan() to report what a farm of synthesis workers would take.
    std::vector<double> synthesis_costs() const;

    // Cache effectiveness counters: total lookups (hits = lookups - builds).
    long long cone_lookups() const { return cone_lookups_.load(); }
    long long synthesis_lookups() const { return synthesis_lookups_.load(); }
    int cone_builds() const;

private:
    using Synthesis_key = std::tuple<int, int, std::string>;

    Stencil_step step_;
    std::string kernel_name_;
    Synthesis_store store_;
    std::string store_key_prefix_;
    mutable std::shared_mutex mutex_;
    std::map<std::pair<int, int>, std::unique_ptr<Cone>> cones_;
    std::map<Synthesis_key, Synthesis_report> syntheses_;
    std::set<Synthesis_key> loaded_;  // subset of syntheses_ from the store
    std::atomic<long long> cone_lookups_{0};
    std::atomic<long long> synthesis_lookups_{0};
};

}  // namespace islhls
