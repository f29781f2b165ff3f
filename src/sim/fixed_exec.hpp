// Bit-accurate fixed-point execution of register programs.
//
// Mirrors the generated VHDL operator for operator (wrap-around resize,
// truncating multiply shift, VHDL '/' truncation toward zero, floor integer
// square root), so an expected-output vector computed here is exactly what
// the emitted entity produces — the self-checking testbenches rely on it.
//
// run_fixed_raw / run_fixed interpret the instruction vector one sample at
// a time, allocating a fresh register file per call. They are the fixed-
// domain scalar oracle, written independently of the compiled tape and its
// lane kernels, and are not a production path. The production executor is
// the fixed domain of Lane_block (sim/tape_lanes.hpp), which the frame
// engine, the architecture simulator and the format search run and the tests
// compare against run_fixed_raw word for word.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/fixed_point.hpp"
#include "ir/program.hpp"

namespace islhls {

// Runs the program on raw two's-complement words (already in Qm.f).
std::vector<std::int64_t> run_fixed_raw(const Register_program& program,
                                        const std::vector<std::int64_t>& inputs,
                                        const Fixed_format& fmt);

// Convenience: quantizes `inputs`, runs, returns real-valued outputs.
std::vector<double> run_fixed(const Register_program& program,
                              const std::vector<double>& inputs,
                              const Fixed_format& fmt);

}  // namespace islhls
