// Cones: hardware modules computing a window of iteration i+depth directly
// from iteration i (Sec. 3.1/3.2 of the paper).
//
// A cone of depth d and output window w x h evaluates, for every state field
// and every element of the window, the composition of d applications of the
// stencil step. Construction unrolls the dependencies level by level through
// memoized substitution into the shared expression pool: a value needed by
// several consumers (Fig. 4's shared diagonal reads) is created once and
// referenced many times, which is exactly the register-reuse scheme the
// paper uses to keep the generated VHDL slim. The memo is the step's
// (Stencil_step::unrolled), so later cones reuse what earlier ones unrolled.
#pragma once

#include <string>
#include <vector>

#include "grid/tile.hpp"
#include "ir/analysis.hpp"
#include "ir/program.hpp"
#include "symexec/stencil_step.hpp"

namespace islhls {

// Geometry of a cone: output window size and number of iterations fused.
struct Cone_spec {
    int window_width = 1;
    int window_height = 1;
    int depth = 1;

    long long output_elements_per_field() const {
        return static_cast<long long>(window_width) * window_height;
    }
    bool operator==(const Cone_spec&) const = default;
};

std::string to_string(const Cone_spec& spec);

// Aggregate numbers the estimators consume.
struct Cone_stats {
    Cone_spec spec;
    int register_count = 0;    // operation nodes == pipeline registers (Reg_i)
    int input_count = 0;       // distinct input elements (on-chip reads)
    int output_count = 0;      // state_fields * window elements
    int pipeline_depth = 0;    // levelized DAG depth
    Op_census census;          // per-kind operation counts
    Window input_window;       // bounding box of inputs incl. halo
    double naive_operation_count = 0.0;  // tree-expanded op count (no reuse)

    // How many raw operations each materialized register replaces on average;
    // > 1 whenever the unrolled dependencies overlap.
    double reuse_factor() const {
        return register_count > 0 ? naive_operation_count / register_count : 1.0;
    }
};

// A built cone. Shares (and extends) the Stencil_step's expression pool and
// unroll memo; the step must outlive the cone.
class Cone {
public:
    // Builds the cone for `spec` over the given stencil. Throws on
    // non-positive geometry.
    Cone(Stencil_step& step, const Cone_spec& spec);

    const Cone_spec& spec() const { return spec_; }
    const Stencil_step& step() const { return *step_; }

    // Output roots: field-major, then row-major inside the window
    // (field 0 row 0 col 0, field 0 row 0 col 1, ...).
    const std::vector<Expr_id>& outputs() const { return outputs_; }
    int output_index(int state_field, int x, int y) const;

    // Lowered register program (drives VHDL, synthesis costing, simulation).
    const Register_program& program() const { return program_; }

    const Cone_stats& stats() const { return stats_; }

    // Input bounding box relative to the output window origin; equals the
    // output window inflated by depth repetitions of the stencil footprint.
    const Window& input_window() const { return stats_.input_window; }

private:
    Stencil_step* step_;
    Cone_spec spec_;
    std::vector<Expr_id> outputs_;
    Register_program program_;
    Cone_stats stats_;
};

}  // namespace islhls
