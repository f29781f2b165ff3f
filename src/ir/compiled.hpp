// Scanline-compiled form of a register program.
//
// Register_program::run_trace_into() interprets the instruction vector one
// pixel at a time, branching on the instruction kind at every slot. The
// compiled form splits the program once into its three static parts:
//
//   - constants:  (slot, value) pairs, bound ahead of execution;
//   - inputs:     (slot, field, dx, dy) bindings in program port order;
//   - operations: a flat tape whose operands are slot indices.
//
// The tape stays SSA (slot == instruction, every slot written by exactly
// one instruction) and holds no values and no execution code. Its one
// executor is the lane block of sim/tape_lanes.hpp: a consumer — the frame
// engine, the architecture simulator, the format search — runs
// compact_lanes(tape), the same ops with slots reassigned by liveness, built
// once per consumer and not cached here, in double or in one Qm.f format.
// The frame engine also reads the per-field read extents recorded below to
// size its border margins and temporal-tiling halos.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ir/program.hpp"

namespace islhls {

// One operation of the tape. `dest` and `src` are slot indices (== the
// instruction indices of the source Register_program).
struct Tape_op {
    Op_kind kind = Op_kind::add;
    std::int32_t dest = -1;
    std::array<std::int32_t, 3> src = {-1, -1, -1};
    int src_count = 0;
};

// An input binding: the slot receives field(x + dx, y + dy).
struct Tape_input {
    std::int32_t slot = -1;
    int field = -1;
    int dx = 0;
    int dy = 0;
};

// A literal bound to a slot.
struct Tape_constant {
    std::int32_t slot = -1;
    double value = 0.0;
};

// Per-field read-offset bounding box (the field's stencil radius), derived
// from the input bindings. Temporal tiling sizes its per-iteration halo from
// the extents of the fields that advance; fields the program never reads
// keep `used == false` and zero extents.
struct Field_extent {
    bool used = false;
    int min_dx = 0;
    int max_dx = 0;
    int min_dy = 0;
    int max_dy = 0;
};

class Compiled_program {
public:
    explicit Compiled_program(const Register_program& program);

    // Total slots; slot i corresponds to instruction i of the source program.
    int slot_count() const { return slot_count_; }

    const std::vector<Tape_op>& ops() const { return ops_; }
    const std::vector<Tape_input>& inputs() const { return inputs_; }
    const std::vector<Tape_constant>& constants() const { return constants_; }

    // Slots holding the program outputs, in output order.
    const std::vector<std::int32_t>& output_slots() const { return output_slots_; }

    // Bounding box of the input offsets (the one-application footprint);
    // all zero when the program reads no inputs.
    int min_dx() const { return min_dx_; }
    int max_dx() const { return max_dx_; }
    int min_dy() const { return min_dy_; }
    int max_dy() const { return max_dy_; }

    // Per-field offset bounding boxes, indexed by pool field id. Sized to
    // cover every field referenced by an input binding (fields past the last
    // referenced id are absent; treat them as unused).
    const std::vector<Field_extent>& field_extents() const { return field_extents_; }

private:
    std::vector<Tape_op> ops_;
    std::vector<Tape_input> inputs_;
    std::vector<Tape_constant> constants_;
    std::vector<Field_extent> field_extents_;
    std::vector<std::int32_t> output_slots_;
    int slot_count_ = 0;
    int min_dx_ = 0;
    int max_dx_ = 0;
    int min_dy_ = 0;
    int max_dy_ = 0;
};

}  // namespace islhls
