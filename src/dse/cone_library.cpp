#include "dse/cone_library.hpp"

#include <mutex>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

Cone_library::Cone_library(Stencil_step step, std::string kernel_name)
    : step_(std::move(step)), kernel_name_(std::move(kernel_name)) {}

const Cone& Cone_library::cone(int window, int depth) {
    check_internal(window >= 1 && depth >= 1, "cone(window, depth) must be positive");
    cone_lookups_.fetch_add(1, std::memory_order_relaxed);
    const auto key = std::make_pair(window, depth);
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = cones_.find(key);
        if (it != cones_.end()) return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = cones_.find(key);
    if (it == cones_.end()) {
        auto built = std::make_unique<Cone>(step_, Cone_spec{window, window, depth});
        it = cones_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

const Cone_stats& Cone_library::stats(int window, int depth) {
    return cone(window, depth).stats();
}

void Cone_library::attach_synthesis_store(Synthesis_store store,
                                          std::string key_prefix) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    store_ = std::move(store);
    store_key_prefix_ = std::move(key_prefix);
}

const Synthesis_report& Cone_library::synthesis(int window, int depth,
                                                const Fpga_device& device,
                                                const Synth_options& options) {
    synthesis_lookups_.fetch_add(1, std::memory_order_relaxed);
    // The synthesis result depends on the device AND the synthesis options
    // (word width above all — the per-architecture format search re-prices
    // cones at several widths through one library), so the options are part
    // of the memoization key.
    const auto key =
        std::make_tuple(window, depth,
                        cat(device.name, '|', to_string(options.format),
                            options.use_dsp ? "|dsp" : "", '|', options.seed));
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = syntheses_.find(key);
        if (it != syntheses_.end()) return it->second;
    }
    // The persistent store, when attached, is consulted before synthesizing:
    // a loaded report enters the memo map flagged in loaded_, so the meters
    // keep reporting what THIS process actually ran. Load/store happen
    // outside any lock (the store synchronizes itself).
    if (store_.load) {
        const std::string persist_key =
            cat(store_key_prefix_, window, "/", depth, "/", std::get<2>(key), "\n");
        if (std::optional<Synthesis_report> loaded = store_.load(persist_key)) {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            auto [it, inserted] = syntheses_.emplace(key, std::move(*loaded));
            if (inserted) loaded_.insert(key);
            return it->second;
        }
    }
    // Synthesize outside the exclusive section: the synthesizer only reads
    // the cone's own (immutable once built) register program, so distinct
    // keys can synthesize concurrently. Racing threads may synthesize the
    // same key twice; the synthesizer is deterministic, the first insert
    // wins, and the meter counts cache entries, so nothing diverges.
    //
    // The fresh report enters the memo map *before* it reaches the store.
    // A racing worker can only load it from the store after that, so its
    // insert loses and the report is never flagged as a load.
    const Cone& built_cone = cone(window, depth);
    Synthesis_report report = synthesize_cone(built_cone, kernel_name_, device, options);
    const Synthesis_report* result = nullptr;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        result = &syntheses_.emplace(key, std::move(report)).first->second;
    }
    if (store_.store) {
        const std::string persist_key =
            cat(store_key_prefix_, window, "/", depth, "/", std::get<2>(key), "\n");
        store_.store(persist_key, *result);
    }
    return *result;
}

int Cone_library::synthesis_runs() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int>(syntheses_.size() - loaded_.size());
}

int Cone_library::synthesis_loads() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int>(loaded_.size());
}

double Cone_library::synthesis_cpu_seconds() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    double total = 0.0;
    for (const auto& [key, report] : syntheses_) {
        if (!loaded_.count(key)) total += report.synthesis_cpu_seconds;
    }
    return total;
}

std::vector<double> Cone_library::synthesis_costs() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<double> costs;
    costs.reserve(syntheses_.size());
    for (const auto& [key, report] : syntheses_) {
        if (!loaded_.count(key)) costs.push_back(report.synthesis_cpu_seconds);
    }
    return costs;
}

int Cone_library::cone_builds() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int>(cones_.size());
}

}  // namespace islhls
