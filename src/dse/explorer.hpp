// Design space exploration driver (the right half of the paper's Fig. 2).
//
// Three entry points mirror the paper's three experiment kinds:
//   - validate_area_model(): Eq. 1 estimated vs virtually-synthesized area
//     across the whole (window, depth) grid (Figs. 5 and 8);
//   - explore_pareto(): device-unconstrained sweep over windows, iteration
//     partitions and core allocations, Pareto set extraction (Figs. 6 and 9);
//   - fit_device(): maximize throughput inside one device's budget, per
//     (window, primary depth) cell (Figs. 7 and 10).
// A fourth, explore_backends(), fans a *set* of Arch_backends (the paper
// datapath, the streaming multi-PE array, ...) across the same pool and
// merges everything into one cross-backend Pareto front.
//
// All entry points fan independent candidates across a thread pool
// (Space_options::threads) after a one-time serial calibration. Each
// candidate writes into its own pre-sized slot and the cross-candidate
// aggregation (concatenation, Pareto extraction, best-cell scan, error
// statistics) runs after the join in the serial candidate order, so the
// results are byte-identical to a single-threaded run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dse/backend.hpp"
#include "dse/evaluator.hpp"
#include "dse/paper_backend.hpp"
#include "dse/results.hpp"
#include "estimate/format_search.hpp"
#include "support/parallel.hpp"

namespace islhls {

class Explorer {
public:
    // `shared_pool`, when given, replaces the explorer's own lazily built
    // pool: every exploration fans its candidates across it, so a session
    // driving many explorers (core/sweep.hpp) spins up one set of workers
    // for the whole batch. The pool must outlive the explorer and its
    // thread count supersedes Space_options::threads.
    Explorer(Cone_library& library, const Fpga_device& device,
             const Evaluator_options& evaluator_options,
             const Space_options& space_options, Thread_pool* shared_pool = nullptr);

    // All deep-first partitions of N into parts <= max_depth.
    std::vector<std::vector<int>> depth_partitions() const;

    // Canonical partition for a primary depth d: floor(N/d) levels of d, the
    // remainder split recursively (the paper's "missing iterations" handling:
    // depth 3 over N=10 becomes [3,3,3,1], depth 4 becomes [4,4,2]).
    std::vector<int> canonical_partition(int primary_depth) const;

    // --- Pareto exploration (paper backend) --------------------------------------
    Pareto_result explore_pareto();

    // --- cross-backend Pareto exploration ----------------------------------------
    // Calibrates every backend serially, then fans the union of their
    // candidate axes across the pool and merges the points into one front,
    // each point tagged with its backend. The backends must share this
    // explorer's Cone_library (or be otherwise thread-safe against it).
    Backend_pareto explore_backends(const std::vector<Arch_backend*>& backends);

    // --- device fit --------------------------------------------------------------
    Fit_result fit_device();

    // --- area-model validation ---------------------------------------------------
    Area_validation validate_area_model();

    // --- per-candidate fixed-point format search ---------------------------------
    // The numeric axis of the design space: the narrowest passing Qm.f per
    // (window, depth) cell, searched over sample windows of `content` (the
    // same grid the fit/area explorations cover), plus the full evaluation
    // of each cell's canonical one-core design point at its searched format
    // (f_max, cycles and fps re-priced at the searched word width — a true
    // (area, fps, PSNR) point per cell). Cells are independent, so they fan
    // across the explorer's pool like any other candidate set; the per-cell
    // search itself runs serially (options.threads is overridden to 1 —
    // nested pools would oversubscribe) and each cell is seeded, so the
    // grid is bit-identical at any thread count.
    Format_grid search_formats(const Frame_set& content, Boundary boundary,
                               Format_search_options options = {});

    Arch_evaluator& evaluator() { return evaluator_; }
    Paper_backend& paper_backend() { return paper_; }
    const Space_options& space() const { return space_; }

private:
    // Fans body(0..count-1) across the shared pool when one was injected,
    // otherwise the explorer's own pool (created on first use, reused by
    // every subsequent exploration); inline when threads <= 1.
    void run_parallel(std::size_t count,
                      const std::function<void(std::size_t)>& body);

    Arch_evaluator evaluator_;
    Space_options space_;
    Paper_backend paper_;
    Thread_pool* external_pool_ = nullptr;
    std::unique_ptr<Thread_pool> pool_;
};

}  // namespace islhls
