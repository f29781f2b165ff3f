#include "symexec/stencil_step.hpp"

#include <algorithm>

#include "ir/analysis.hpp"
#include "ir/print.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

int Stencil_step::add_state_field(const std::string& name) {
    check_internal(pool_.find_field(name) < 0, cat("field '", name, "' already exists"));
    state_fields_.push_back(name);
    updates_.push_back(no_expr);
    return pool_.intern_field(name);
}

int Stencil_step::add_const_field(const std::string& name) {
    check_internal(pool_.find_field(name) < 0, cat("field '", name, "' already exists"));
    const_fields_.push_back(name);
    return pool_.intern_field(name);
}

void Stencil_step::set_update(const std::string& state_field, Expr_id expr) {
    const auto it = std::find(state_fields_.begin(), state_fields_.end(), state_field);
    check_internal(it != state_fields_.end(),
                   cat("set_update on unknown state field '", state_field, "'"));
    updates_[static_cast<std::size_t>(it - state_fields_.begin())] = expr;
    unrolled_.clear();  // memoized values unrolled the old update
}

Expr_id Stencil_step::update(int state_index) const {
    check_internal(state_index >= 0 &&
                       state_index < static_cast<int>(updates_.size()),
                   "state index out of range");
    const Expr_id e = updates_[static_cast<std::size_t>(state_index)];
    check_internal(e != no_expr, "state field has no update expression");
    return e;
}

Expr_id Stencil_step::update(const std::string& state_field) const {
    const auto it = std::find(state_fields_.begin(), state_fields_.end(), state_field);
    check_internal(it != state_fields_.end(),
                   cat("update() on unknown state field '", state_field, "'"));
    return update(static_cast<int>(it - state_fields_.begin()));
}

bool Stencil_step::is_state_index(int field) const { return state_position(field) >= 0; }

int Stencil_step::state_position(int field) const {
    if (field < 0 || field >= pool_.field_count()) return -1;
    const std::string& name = pool_.field_name(field);
    const auto it = std::find(state_fields_.begin(), state_fields_.end(), name);
    return it == state_fields_.end() ? -1
                                     : static_cast<int>(it - state_fields_.begin());
}

Footprint Stencil_step::footprint() const {
    return support_footprint(pool_, updates_);
}

int Stencil_step::max_reach() const {
    const Footprint fp = footprint();
    return std::max({fp.left, fp.right, fp.up, fp.down});
}

Expr_id Stencil_step::unrolled(int s, int level, int x, int y) {
    if (level == 0) {
        const int field = pool_.find_field(state_fields_[static_cast<std::size_t>(s)]);
        return pool_.input(field, x, y);
    }
    // Key: 8 bits of state, 16 of level, 20 per coordinate (offset binary).
    constexpr int bias = 1 << 19;
    if (s < 0 || s >= 256 || level < 0 || level >= (1 << 16) || x < -bias ||
        x >= bias || y < -bias || y >= bias) {
        throw Internal_error("unrolled(): state, level or position out of range");
    }
    const std::uint64_t key = static_cast<std::uint64_t>(s) << 56 |
                              static_cast<std::uint64_t>(level) << 40 |
                              static_cast<std::uint64_t>(x + bias) << 20 |
                              static_cast<std::uint64_t>(y + bias);
    if (const auto it = unrolled_.find(key); it != unrolled_.end()) return it->second;

    const Expr_id result =
        transform_inputs(pool_, update(s), [&](const Expr_node& leaf) -> Expr_id {
            const int state_pos = state_position(leaf.field);
            if (state_pos >= 0) {
                return unrolled(state_pos, level - 1, x + leaf.dx, y + leaf.dy);
            }
            // Constant (iteration-invariant) field: always read from the
            // level-0 input, whatever the level.
            return pool_.input(leaf.field, x + leaf.dx, y + leaf.dy);
        });
    unrolled_.emplace(key, result);
    return result;
}

std::string Stencil_step::describe() const {
    std::string out;
    for (std::size_t i = 0; i < state_fields_.size(); ++i) {
        out += cat(state_fields_[i], "' = ", to_infix(pool_, updates_[i]), "\n");
    }
    return out;
}

}  // namespace islhls
