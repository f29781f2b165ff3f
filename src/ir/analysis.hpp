// Static analyses over expression DAGs and their lowered register programs:
// reachability, operation census, tree-expanded operation count and input
// support. These feed the cone statistics the estimators consume (register
// counts drive the Eq. 1 area model; op kinds and depth drive the timing
// model).
#pragma once

#include <map>
#include <vector>

#include "grid/tile.hpp"
#include "ir/expr.hpp"
#include "ir/program.hpp"

namespace islhls {

// Census of the nodes reachable from a set of roots. Every DAG node is
// counted once regardless of how many times it is referenced — that is the
// register-reuse property.
struct Op_census {
    std::map<Op_kind, int> by_kind;
    int operation_count = 0;  // nodes with is_operation(kind)
    int input_count = 0;      // distinct input leaves
    int constant_count = 0;   // distinct constants
    int count(Op_kind k) const;
};

// Unique reachable node ids from `roots`, in deterministic topological order
// (operands before users).
std::vector<Expr_id> reachable_nodes(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots);

// What a lowered program holds, taken in one pass over its instructions
// (exactly one per DAG node reachable from the roots, operands in argument
// order).
struct Program_census {
    Op_census ops;
    // Tree-expanded operation count: what symbolic execution without
    // register reuse would have materialized (per node 1 + its operands'
    // counts, summed over the outputs with no sharing between them either).
    double naive_operation_count = 0.0;
};
Program_census census_of(const Register_program& program);

// A reference to one distinct input element used by an expression.
struct Input_ref {
    int field = -1;
    int dx = 0;
    int dy = 0;
    auto operator<=>(const Input_ref&) const = default;
};

// Sorted distinct input leaves reachable from the roots.
std::vector<Input_ref> input_support(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots);

// Tightest footprint covering the support (per-field union). An expression
// with no input leaves yields the empty footprint.
Footprint support_footprint(const Expr_pool& pool, const std::vector<Expr_id>& roots);

}  // namespace islhls
