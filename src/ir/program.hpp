// Register programs: the scheduled, three-address form of an expression DAG.
//
// This is the paper's "slim VHDL with a high degree of resource reuse" made
// explicit: each DAG node becomes exactly one instruction whose destination
// is one hardware register; any further use of the value reads that register.
// The same structure drives the VHDL emitter, the virtual synthesizer's
// netlist costing, and the fast functional executor in the simulator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/expr.hpp"

namespace islhls {

class Compiled_program;

// One instruction. `dest` is the register index (== position in the program's
// instruction vector). Leaves occupy instruction slots too: constants bind a
// literal, inputs bind an input port; neither consumes a hardware register.
struct Instruction {
    Op_kind kind = Op_kind::constant;
    double value = 0.0;                  // constant payload
    int field = -1;                      // input payload
    int dx = 0;
    int dy = 0;
    std::array<std::int32_t, 3> operands = {-1, -1, -1};  // register indices
    int operand_count = 0;
    int level = 0;  // ASAP pipeline stage; leaves at 0
};

// A topologically ordered instruction sequence with designated outputs.
class Register_program {
public:
    Register_program() = default;

    const std::vector<Instruction>& instructions() const { return instrs_; }
    const std::vector<std::int32_t>& outputs() const { return output_regs_; }

    // Number of operation instructions == hardware registers (the Reg_i of
    // the paper's Eq. 1).
    int register_count() const { return register_count_; }
    // Distinct input ports.
    int input_count() const { return input_count_; }
    // Distinct literal constants.
    int constant_count() const { return constant_count_; }
    // Pipeline depth (maximum level over all instructions).
    int depth() const { return depth_; }

    // Executes the program; `inputs[i]` must hold the value for the i-th
    // input instruction (in program order). Returns the output values.
    //
    // Compatibility wrapper over the compiled execution engine's scalar
    // path: it evaluates the tape into a reused per-thread scratch buffer
    // and only materializes the outputs (no full instruction-slot trace).
    // Hot loops should use compiled() / Exec_engine directly.
    std::vector<double> run(const std::vector<double>& inputs) const;

    // Like run(), but returns the value of *every* instruction slot — used
    // by range analysis (fixed-point format search) to see intermediates.
    std::vector<double> run_trace(const std::vector<double>& inputs) const;

    // Batch-friendly run_trace: writes every instruction slot's value into
    // `regs` (resized to the instruction count), reusing its capacity so a
    // caller tracing many input sets performs no per-call allocation. This
    // is the reference interpreter the compiled engine is validated against.
    void run_trace_into(const std::vector<double>& inputs,
                        std::vector<double>& regs) const;

    // The scanline-compiled form of this program. Built eagerly by
    // build_program() (a single linear pass) and shared by copies, so this
    // accessor is a plain read — no synchronization, valid for the
    // program's lifetime. Throws on a default-constructed program.
    const Compiled_program& compiled() const;

    // Input ports in program order, as (field, dx, dy) triples.
    struct Port {
        int field = -1;
        int dx = 0;
        int dy = 0;
    };
    const std::vector<Port>& input_ports() const { return ports_; }

    friend Register_program build_program(const Expr_pool& pool,
                                          const std::vector<Expr_id>& roots);

private:
    std::vector<Instruction> instrs_;
    std::vector<std::int32_t> output_regs_;
    std::vector<Port> ports_;
    int register_count_ = 0;
    int input_count_ = 0;
    int constant_count_ = 0;
    int depth_ = 0;
    // Set once by build_program(); immutable afterwards (which is what makes
    // the unsynchronized compiled() read safe).
    std::shared_ptr<const Compiled_program> compiled_;
};

// Lowers the DAG reachable from `roots` to a register program.
Register_program build_program(const Expr_pool& pool, const std::vector<Expr_id>& roots);

}  // namespace islhls
