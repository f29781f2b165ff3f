#include "dse/explorer.hpp"

#include <algorithm>

#include "dse/pareto.hpp"

#include "support/error.hpp"
#include "support/numeric.hpp"
#include "support/parallel.hpp"

namespace islhls {

Explorer::Explorer(Cone_library& library, const Fpga_device& device,
                   const Evaluator_options& evaluator_options,
                   const Space_options& space_options, Thread_pool* shared_pool)
    : evaluator_(library, device, evaluator_options),
      space_(space_options),
      paper_(evaluator_, space_options),
      external_pool_(shared_pool) {
    check_internal(space_.iterations >= 1 && space_.max_window >= 1 &&
                       space_.max_depth >= 1,
                   "invalid space options");
}

std::vector<std::vector<int>> Explorer::depth_partitions() const {
    return islhls::depth_partitions(space_.iterations, space_.max_depth);
}

std::vector<int> Explorer::canonical_partition(int primary_depth) const {
    return islhls::canonical_partition(space_.iterations, primary_depth);
}

void Explorer::run_parallel(std::size_t count,
                            const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    const int threads = external_pool_ ? external_pool_->thread_count()
                                       : resolve_thread_count(space_.threads);
    if (threads <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i) body(i);
        return;
    }
    if (external_pool_) {
        external_pool_->for_each_index(count, body);
        return;
    }
    if (!pool_) pool_ = std::make_unique<Thread_pool>(space_.threads);
    pool_->for_each_index(count, body);
}

Pareto_result Explorer::explore_pareto() {
    // One-time alpha calibration, then every candidate evaluation is pure.
    paper_.calibrate();

    const std::size_t count = paper_.candidate_count();
    std::vector<std::vector<Arch_evaluation>> steps(count);
    run_parallel(count, [&](std::size_t i) { steps[i] = paper_.candidate_steps(i); });

    Pareto_result result;
    result.backend = paper_.name();
    for (const auto& candidate_steps : steps) {
        result.points.insert(result.points.end(), candidate_steps.begin(),
                             candidate_steps.end());
    }
    std::vector<Design_point> dps;
    dps.reserve(result.points.size());
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        dps.push_back({result.points[i].estimated_area_luts,
                       result.points[i].throughput.seconds_per_frame, i});
    }
    result.front = pareto_front(dps);
    return result;
}

Backend_pareto Explorer::explore_backends(
    const std::vector<Arch_backend*>& backends) {
    // Serial calibration of every backend (model fitting and cone building
    // mutate the shared library), then the union of the candidate axes fans
    // across one pool.
    for (Arch_backend* backend : backends) backend->calibrate();

    struct Slot {
        std::size_t backend = 0;
        std::size_t candidate = 0;
    };
    std::vector<Slot> slots;
    for (std::size_t b = 0; b < backends.size(); ++b) {
        const std::size_t count = backends[b]->candidate_count();
        for (std::size_t c = 0; c < count; ++c) slots.push_back({b, c});
    }

    std::vector<std::vector<Backend_point>> results(slots.size());
    run_parallel(slots.size(), [&](std::size_t i) {
        results[i] = backends[slots[i].backend]->evaluate_candidate(
            slots[i].candidate);
    });

    Backend_pareto merged;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::string& backend_name = backends[slots[i].backend]->name();
        for (Backend_point& point : results[i]) {
            merged.points.push_back({backend_name, std::move(point)});
        }
    }
    std::vector<Design_point> dps;
    dps.reserve(merged.points.size());
    for (std::size_t i = 0; i < merged.points.size(); ++i) {
        dps.push_back({merged.points[i].point.area_luts,
                       merged.points[i].point.seconds_per_frame, i});
    }
    merged.front = pareto_front(dps);
    return merged;
}

Fit_result Explorer::fit_device() {
    paper_.calibrate();

    Fit_result result;
    result.backend = paper_.name();
    const double budget =
        static_cast<double>(evaluator_.device().usable_luts());
    const std::size_t cells =
        static_cast<std::size_t>(space_.max_window) *
        static_cast<std::size_t>(space_.max_depth);
    result.grid.resize(cells);
    run_parallel(cells, [&](std::size_t i) {
        // Row-major (window, primary depth), matching the serial loop nest.
        const int w = static_cast<int>(i) / space_.max_depth + 1;
        const int d = static_cast<int>(i) % space_.max_depth + 1;
        Fit_cell& cell = result.grid[i];
        cell.window = w;
        cell.primary_depth = d;
        Arch_instance instance;
        instance.window = w;
        instance.level_depths = canonical_partition(d);
        const Paper_backend::Grow_result grown = paper_.grow_allocation(
            instance, budget, space_.max_cores_per_sweep * 4, nullptr);
        cell.valid = grown.any_feasible;
        if (cell.valid) cell.eval = grown.best;
    });
    // Best cell: first strict fps maximum in grid order, as the serial scan
    // picked it.
    for (const Fit_cell& cell : result.grid) {
        if (!cell.valid) continue;
        if (!result.has_best ||
            cell.eval.throughput.fps > result.best.throughput.fps) {
            result.best = cell.eval;
            result.has_best = true;
        }
    }
    return result;
}

Area_validation Explorer::validate_area_model() {
    paper_.calibrate();

    Area_validation validation;
    validation.backend = paper_.name();
    const auto& calibration = evaluator_.options().calibration_windows;
    const std::size_t cells =
        static_cast<std::size_t>(space_.max_window) *
        static_cast<std::size_t>(space_.max_depth);
    validation.points.resize(cells);
    run_parallel(cells, [&](std::size_t i) {
        // Row-major (depth, window), matching the serial loop nest.
        const int d = static_cast<int>(i) / space_.max_window + 1;
        const int w = static_cast<int>(i) % space_.max_window + 1;
        Area_point& p = validation.points[i];
        p.window = w;
        p.depth = d;
        p.registers = evaluator_.library().stats(w, d).register_count;
        p.estimated_luts = evaluator_.estimated_cone_area(w, d);
        p.actual_luts = evaluator_.actual_cone_area(w, d);
        p.is_calibration = std::find(calibration.begin(), calibration.end(), w) !=
                           calibration.end();
        p.rel_error = relative_error(p.estimated_luts, p.actual_luts);
    });
    double err_sum = 0.0;
    int err_count = 0;
    for (const Area_point& p : validation.points) {
        if (p.is_calibration) continue;
        validation.max_rel_error = std::max(validation.max_rel_error, p.rel_error);
        err_sum += p.rel_error;
        err_count += 1;
    }
    validation.avg_rel_error = err_count > 0 ? err_sum / err_count : 0.0;
    return validation;
}

Format_grid Explorer::search_formats(const Frame_set& content, Boundary boundary,
                                     Format_search_options options) {
    // One search per cell inside the candidate fan-out; the search's own
    // sample-window pool stays disabled (its parallelism would nest).
    options.threads = 1;
    // Pre-build the cone grid serially: cone construction extends the
    // kernel's shared expression pool and unroll memo and must not race the
    // parallel cells (the same discipline as Arch_evaluator::calibrate,
    // without paying for syntheses this search never reads). The memo keeps
    // this cheap: the grid unrolls no more than its largest cone does.
    Cone_library& library = evaluator_.library();
    for (int d = 1; d <= space_.max_depth; ++d) {
        for (int w = 1; w <= space_.max_window; ++w) library.cone(w, d);
        // The per-cell pricing evaluators lazily calibrate their depth's
        // area model from the calibration windows — those cones must exist
        // before the fan-out too.
        for (int w : evaluator_.options().calibration_windows) library.cone(w, d);
    }

    Format_grid grid;
    grid.backend = paper_.name();
    const std::size_t cells = static_cast<std::size_t>(space_.max_window) *
                              static_cast<std::size_t>(space_.max_depth);
    grid.cells.resize(cells);
    run_parallel(cells, [&](std::size_t i) {
        // Row-major (window, depth), matching the fit grid.
        const int w = static_cast<int>(i) / space_.max_depth + 1;
        const int d = static_cast<int>(i) % space_.max_depth + 1;
        Format_cell& cell = grid.cells[i];
        cell.window = w;
        cell.depth = d;
        cell.result = search_fixed_format(library.cone(w, d), content, boundary,
                                          options);
        if (!cell.result.satisfiable) return;
        // Full re-evaluation at the searched format: a per-cell evaluator
        // whose cost model, synthesis clock and throughput all see the
        // searched word width prices the canonical single-level design point
        // (one core of this cell's cone) — so the cell is a true
        // (area, fps, PSNR) point, not an area-only re-price. Synthesis
        // memoization and lazy model calibration are thread-safe, and each
        // cell's evaluator is independent, so the grid stays bit-identical
        // at any thread count.
        Evaluator_options priced = evaluator_.options();
        priced.format = cell.result.format;
        priced.synth.format = cell.result.format;
        const Arch_evaluator pricer(library, evaluator_.device(), priced);
        Arch_instance instance;
        instance.window = w;
        instance.level_depths = {d};
        instance.cores_per_depth[d] = 1;
        const Arch_evaluation eval = pricer.evaluate(instance);
        if (!eval.feasible) return;
        cell.evaluated = true;
        cell.area_luts = eval.estimated_area_luts;
        cell.f_max_mhz = eval.f_max_mhz;
        cell.fps = eval.throughput.fps;
    });
    return grid;
}

}  // namespace islhls
