// Numeric evaluation of expression DAGs.
//
// evaluate / evaluate_many walk the DAG directly, independent of lowering:
// the tests pin build_program's register programs against them. apply_op is
// the double-domain op semantics of the scalar interpreter
// (Register_program::run_trace_into); the lane kernels of sim/tape_lanes.hpp
// match it case for case. Neither the golden checks nor the architecture
// simulator evaluate DAGs: both run the compiled tape.
#pragma once

#include <functional>
#include <vector>

#include "ir/expr.hpp"

namespace islhls {

// Resolves the value of an input leaf (field, dx, dy) for the current
// evaluation context (typically a read from a Frame_set around some origin).
using Input_resolver = std::function<double(int field, int dx, int dy)>;

// Evaluates `root` with DAG memoization; every node computed at most once.
double evaluate(const Expr_pool& pool, Expr_id root, const Input_resolver& resolve);

// Evaluates several roots sharing one memo table (cheaper than repeated
// evaluate() calls when roots share structure, as cone outputs do).
std::vector<double> evaluate_many(const Expr_pool& pool,
                                  const std::vector<Expr_id>& roots,
                                  const Input_resolver& resolve);

// Applies a single operation to already-computed operand values; shared by
// the DAG evaluator and the register-program interpreter so their semantics
// never diverge.
double apply_op(Op_kind kind, const double* operands);

}  // namespace islhls
