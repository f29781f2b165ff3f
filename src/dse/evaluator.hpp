// Evaluation of one architecture instance: area (estimated via the paper's
// Eq. 1 model, with the virtual-synthesis "actual" kept alongside for
// validation), throughput, memory budget and feasibility.
//
// Evaluation is split into two phases so the explorer can fan out safely:
// calibrate() fits the per-depth area models once (each costs the two alpha
// syntheses of the paper), after which evaluate() is pure — it only reads
// the calibrated models and the memoized cone library, so any number of
// threads may evaluate candidates concurrently. Lazy calibration on first
// use is kept for one-off callers and is itself lock-protected.
#pragma once

#include <map>
#include <shared_mutex>
#include <string>

#include "backend/fixed_point.hpp"
#include "dse/architecture.hpp"
#include "dse/cone_library.hpp"
#include "estimate/area_model.hpp"
#include "estimate/memory_model.hpp"
#include "estimate/throughput_model.hpp"
#include "synth/device.hpp"

namespace islhls {

struct Evaluator_options {
    int frame_width = 1024;
    int frame_height = 768;
    Fixed_format format;
    Synth_options synth;
    Throughput_params throughput;
    // Windows synthesized (per depth class) to calibrate the area model; the
    // paper uses two ("as low as two" syntheses).
    std::vector<int> calibration_windows = {1, 2};
    // Fixed infrastructure per cone class: DMA lane, sequencer, buffer
    // alignment network. Charged once per distinct depth in the instance,
    // which is what makes remainder classes expensive on a full device.
    double class_overhead_luts = 24000.0;
};

struct Arch_evaluation {
    Arch_instance instance;
    bool feasible = true;
    std::string infeasible_reason;

    double estimated_area_luts = 0.0;  // Eq. 1 model, what the DSE ranks by
    double actual_area_luts = 0.0;     // virtual synthesis ground truth
    double f_max_mhz = 0.0;            // slowest cone type clock
    long long windows_per_frame = 0;
    Throughput_estimate throughput;
    Memory_budget memory;
};

class Arch_evaluator {
public:
    Arch_evaluator(Cone_library& library, const Fpga_device& device,
                   const Evaluator_options& options);

    // One-time calibration: fits the area models for depths 1..max_depth
    // (the alpha syntheses of Eq. 1) and pre-builds every cone of the
    // (1..max_window, 1..max_depth) grid. Cone construction extends the
    // kernel's shared expression pool and unroll memo, so it must not race
    // the unlocked pool reads inside evaluate(). With the memo the grid
    // unrolls no more than its largest cone does; each further cone only
    // lowers its program. After calibrate(W, D), evaluating any
    // instance with window <= W and depths <= D is pure — no model fitting,
    // no pool mutation — and safe from many threads at once.
    void calibrate(int max_window, int max_depth);
    bool is_calibrated(int depth) const;

    // Full evaluation; never throws on infeasible instances (reports them).
    Arch_evaluation evaluate(const Arch_instance& instance) const;

    // Eq. 1 estimated LUTs of one cone type (calibrating the depth's model on
    // first use).
    double estimated_cone_area(int window, int depth) const;
    // Virtual-synthesis LUTs of one cone type.
    double actual_cone_area(int window, int depth) const;

    const Fpga_device& device() const { return device_; }
    Cone_library& library() const { return library_; }
    const Evaluator_options& options() const { return options_; }

private:
    const Area_model& model_for_depth(int depth) const;

    Cone_library& library_;
    const Fpga_device& device_;
    Evaluator_options options_;
    mutable std::shared_mutex models_mutex_;
    mutable std::map<int, Area_model> area_models_;  // per depth class
};

}  // namespace islhls
