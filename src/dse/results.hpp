// Top-level result types for design-space explorations.
//
// These used to be nested inside Explorer; they moved here when the DSE grew
// multiple architecture backends (dse/backend.hpp), so results can carry the
// backend that produced them and flow through caches, reports and merged
// Pareto fronts without dragging the Explorer type along.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dse/evaluator.hpp"
#include "estimate/format_search.hpp"

namespace islhls {

// --- Pareto exploration ---------------------------------------------------------
struct Pareto_result {
    std::string backend = "paper";         // Arch_backend that produced it
    std::vector<Arch_evaluation> points;   // every evaluated allocation
    std::vector<std::size_t> front;        // indices into `points`
};

// --- device fit -----------------------------------------------------------------
struct Fit_cell {
    int window = 0;
    int primary_depth = 0;
    bool valid = false;          // a feasible allocation exists
    Arch_evaluation eval;
};
struct Fit_result {
    std::string backend = "paper";
    std::vector<Fit_cell> grid;  // (window, primary depth) row-major
    bool has_best = false;
    Arch_evaluation best;        // highest fps over the valid grid
};

// --- area-model validation ------------------------------------------------------
struct Area_point {
    int window = 0;
    int depth = 0;
    int registers = 0;
    double estimated_luts = 0.0;
    double actual_luts = 0.0;
    bool is_calibration = false;  // synthesized to fit alpha
    double rel_error = 0.0;
};
struct Area_validation {
    std::string backend = "paper";
    std::vector<Area_point> points;
    double max_rel_error = 0.0;  // over non-calibration points
    double avg_rel_error = 0.0;
};

// --- per-candidate fixed-point format search ------------------------------------
// One (window, depth) cell: the searched format plus the full evaluation of
// the canonical single-level design point {window, depths={depth}, 1 core}
// at that format — a true (area, fps, PSNR) point, with f_max and cycles
// re-priced at the searched word width instead of the global format.
struct Format_cell {
    int window = 0;
    int depth = 0;
    Format_search_result result;
    // Full re-evaluation at the searched format (device-dependent, iteration-
    // count-independent). `evaluated` is false when the search was
    // unsatisfiable or the caller skipped pricing.
    bool evaluated = false;
    double area_luts = 0.0;
    double f_max_mhz = 0.0;
    double fps = 0.0;
};
struct Format_grid {
    std::string backend = "paper";
    std::vector<Format_cell> cells;  // (window, primary depth) row-major

    const Format_cell& at(int window, int depth, int max_depth) const {
        return cells[static_cast<std::size_t>(window - 1) *
                         static_cast<std::size_t>(max_depth) +
                     static_cast<std::size_t>(depth - 1)];
    }
};

// --- generic backend points -----------------------------------------------------
// One feasible design point as any backend reports it: the two Pareto
// objectives plus a human-readable candidate identity and a full-precision
// detail line (the byte-identity currency of dump()).
struct Backend_point {
    std::string config;            // e.g. "w3 [2,2,1] ..." or "stream(d=2,...)"
    double area_luts = 0.0;
    double seconds_per_frame = 0.0;
    double fps = 0.0;
    std::string detail;            // full-precision dump line, no newline
};

// A cross-backend exploration: every point tagged with its backend, one
// merged front over (area, seconds_per_frame).
struct Backend_pareto {
    struct Tagged {
        std::string backend;
        Backend_point point;
    };
    std::vector<Tagged> points;
    std::vector<std::size_t> front;  // indices into `points`
};

// Deterministic full-precision renderings, used to assert byte-identity
// between serial and parallel explorations (tests, benches) and to diff
// results across code changes. The backend tag is deliberately not printed
// by the legacy dumps: a paper-backend exploration must render byte-identical
// to the pre-backend-interface output.
std::string dump(const Arch_evaluation& eval);
std::string dump(const Pareto_result& result);
std::string dump(const Fit_result& result);
std::string dump(const Area_validation& validation);
std::string dump(const Format_grid& grid);
std::string dump(const Backend_pareto& result);

// The one-line full-precision rendering of an evaluation (no trailing
// newline); backends fill Backend_point::detail with it so generic dumps
// stay byte-identical to the typed ones.
std::string dump_evaluation_line(const Arch_evaluation& eval);

}  // namespace islhls
