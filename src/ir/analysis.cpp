#include "ir/analysis.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "support/error.hpp"

namespace islhls {

int Op_census::count(Op_kind k) const {
    const auto it = by_kind.find(k);
    return it == by_kind.end() ? 0 : it->second;
}

std::vector<Expr_id> reachable_nodes(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots) {
    // Expr_ids are dense, so "visited" is a per-node stamp. The array is
    // reused across calls; a fresh stamp value marks this call's visits.
    thread_local std::vector<std::uint32_t> visited;
    thread_local std::uint32_t stamp = 0;
    if (++stamp == 0) {
        std::fill(visited.begin(), visited.end(), 0u);
        stamp = 1;
    }
    if (visited.size() < pool.size()) visited.resize(pool.size(), 0u);

    std::vector<Expr_id> order;
    // Iterative post-order DFS: push (node, expanded) pairs.
    std::vector<std::pair<Expr_id, bool>> stack;
    for (auto it = roots.rbegin(); it != roots.rend(); ++it) stack.push_back({*it, false});
    while (!stack.empty()) {
        auto [id, expanded] = stack.back();
        stack.pop_back();
        if (expanded) {
            order.push_back(id);
            continue;
        }
        if (visited[id] == stamp) continue;
        visited[id] = stamp;
        stack.push_back({id, true});
        const Expr_node& n = pool.node(id);
        for (int i = n.arg_count() - 1; i >= 0; --i) {
            const Expr_id arg = n.args[static_cast<std::size_t>(i)];
            if (visited[arg] != stamp) stack.push_back({arg, false});
        }
    }
    return order;
}

Program_census census_of(const Register_program& program) {
    const std::vector<Instruction>& instrs = program.instructions();
    std::array<int, static_cast<std::size_t>(Op_kind::select) + 1> by_kind{};
    std::vector<double> naive(instrs.size(), 0.0);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        by_kind[static_cast<std::size_t>(instr.kind)] += 1;
        double cost = is_operation(instr.kind) ? 1.0 : 0.0;
        for (int a = 0; a < instr.operand_count; ++a) {
            const std::int32_t operand = instr.operands[static_cast<std::size_t>(a)];
            cost += naive[static_cast<std::size_t>(operand)];
        }
        naive[i] = cost;
    }

    Program_census result;
    Op_census& census = result.ops;
    for (std::size_t k = 0; k < by_kind.size(); ++k) {
        const int count = by_kind[k];
        if (count == 0) continue;
        const auto kind = static_cast<Op_kind>(k);
        census.by_kind.emplace(kind, count);
        if (is_operation(kind)) {
            census.operation_count += count;
        } else if (kind == Op_kind::input) {
            census.input_count += count;
        } else {
            census.constant_count += count;
        }
    }
    for (std::int32_t r : program.outputs()) {
        result.naive_operation_count += naive[static_cast<std::size_t>(r)];
    }
    return result;
}

std::vector<Input_ref> input_support(const Expr_pool& pool,
                                     const std::vector<Expr_id>& roots) {
    std::vector<Input_ref> refs;
    for (Expr_id id : reachable_nodes(pool, roots)) {
        const Expr_node& n = pool.node(id);
        if (n.kind == Op_kind::input) refs.push_back({n.field, n.dx, n.dy});
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    return refs;
}

Footprint support_footprint(const Expr_pool& pool, const std::vector<Expr_id>& roots) {
    Footprint fp;
    for (const Input_ref& r : input_support(pool, roots)) {
        fp.left = std::max(fp.left, -r.dx);
        fp.right = std::max(fp.right, r.dx);
        fp.up = std::max(fp.up, -r.dy);
        fp.down = std::max(fp.down, r.dy);
    }
    return fp;
}

}  // namespace islhls
