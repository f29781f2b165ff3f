#include "sim/tape_lanes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/error.hpp"

// Multi-ISA lane bodies: on x86-64 under gcc/clang the bodies are compiled
// three times (baseline, AVX2, AVX-512) via function target attributes and
// resolved once per process with __builtin_cpu_supports. This is plain
// function-pointer dispatch — no ifunc, so it stays friendly to sanitizers
// and static initialization order. Everywhere else the baseline body is the
// only clone and the resolver is a constant.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ISLHLS_LANE_MULTIARCH 1
#endif

namespace islhls {

namespace lanes_base {
#define ISLHLS_LANE_ATTR
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_base

#if defined(ISLHLS_LANE_MULTIARCH)
namespace lanes_avx2 {
#define ISLHLS_LANE_ATTR __attribute__((target("avx2")))
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_avx2

namespace lanes_avx512 {
// DQ provides the vector 64-bit multiply (vpmullq), VL the 128/256-bit
// forms of the EVEX ops the tail loops want.
#define ISLHLS_LANE_ATTR \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw")))
#include "sim/tape_lanes_body.inc"
#undef ISLHLS_LANE_ATTR
}  // namespace lanes_avx512
#endif  // ISLHLS_LANE_MULTIARCH

namespace {

struct Lane_dispatch {
    Fixed_lane_fn fixed;
    Double_lane_fn dbl;
    const char* isa;
};

Lane_dispatch resolve_lane_dispatch() {
#if defined(ISLHLS_LANE_MULTIARCH)
    if (__builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw")) {
        return {&lanes_avx512::fixed_ops_lanes, &lanes_avx512::double_ops_lanes,
                "avx512"};
    }
    if (__builtin_cpu_supports("avx2")) {
        return {&lanes_avx2::fixed_ops_lanes, &lanes_avx2::double_ops_lanes, "avx2"};
    }
#endif
    return {&lanes_base::fixed_ops_lanes, &lanes_base::double_ops_lanes, "default"};
}

const Lane_dispatch& lane_dispatch() {
    // Magic statics: resolved exactly once, thread-safe.
    static const Lane_dispatch dispatch = resolve_lane_dispatch();
    return dispatch;
}

}  // namespace

Lane_tape compact_lanes(const Compiled_program& tape) {
    const auto slots = static_cast<std::size_t>(tape.slot_count());
    const std::vector<Tape_op>& ops = tape.ops();
    Lane_tape out;
    out.tape = &tape;
    out.slot_of.assign(slots, -1);

    // Pinned values first, in tape-slot order: they live across the whole
    // block (constants and inputs from the bind, outputs until read back).
    std::vector<char> pinned(slots, 0);
    for (const Tape_constant& c : tape.constants()) pinned[c.slot] = 1;
    for (const Tape_input& in : tape.inputs()) pinned[in.slot] = 1;
    for (std::int32_t o : tape.output_slots()) pinned[o] = 1;
    for (std::size_t s = 0; s < slots; ++s) {
        if (pinned[s]) out.slot_of[s] = out.slot_count++;
    }

    // Index of the last op reading each value (-1: never read).
    std::vector<std::int32_t> last_use(slots, -1);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (int a = 0; a < ops[i].src_count; ++a) {
            last_use[ops[i].src[a]] = static_cast<std::int32_t>(i);
        }
    }

    // Linear scan: the destination takes the most recently freed slot, then
    // the op releases the sources it read last. Releasing after the take
    // keeps a destination off its own operands.
    std::vector<std::int32_t> free_slots;
    out.ops.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Tape_op op = ops[i];
        const std::int32_t dest = op.dest;
        if (!pinned[dest]) {
            if (free_slots.empty()) {
                out.slot_of[dest] = out.slot_count++;
            } else {
                out.slot_of[dest] = free_slots.back();
                free_slots.pop_back();
            }
        }
        op.dest = out.slot_of[dest];
        for (int a = 0; a < op.src_count; ++a) {
            const std::int32_t src = ops[i].src[a];
            op.src[a] = out.slot_of[src];
            const bool repeated = std::find(ops[i].src.begin(), ops[i].src.begin() + a,
                                            src) != ops[i].src.begin() + a;
            if (!pinned[src] && !repeated &&
                last_use[src] == static_cast<std::int32_t>(i)) {
                free_slots.push_back(op.src[a]);
            }
        }
        // A value nobody reads is still computed (its lanes may be folded
        // by the caller while the op runs), then its slot is free again.
        if (!pinned[dest] && last_use[dest] < 0) free_slots.push_back(op.dest);
        out.ops.push_back(op);
    }
    return out;
}

Fixed_lane_fn fixed_lane_kernel() { return lane_dispatch().fixed; }
Double_lane_fn double_lane_kernel() { return lane_dispatch().dbl; }
const char* tape_lane_isa() { return lane_dispatch().isa; }

template <class Value>
void Lane_block<Value>::pin_constants() {
    lanes_.resize(static_cast<std::size_t>(layout_->slot_count) * kTapeLane);
    for (const Tape_constant& c : tape().constants()) {
        Value* dst = lane(c.slot);
        std::fill(dst, dst + kTapeLane, domain_.constant(c.value));
    }
}

template <class Value>
void Lane_block<Value>::copy_in(std::int32_t tape_slot, const Value* src, int n) {
    std::memcpy(lane(tape_slot), src, static_cast<std::size_t>(n) * sizeof(Value));
}

template <class Value>
void Lane_block<Value>::copy_out(std::int32_t tape_slot, Value* dst, int n) const {
    std::memcpy(dst, lane(tape_slot), static_cast<std::size_t>(n) * sizeof(Value));
}

template <class Value>
void Lane_block<Value>::run_batch(const Value* inputs, std::size_t samples,
                                  Value* outputs) {
    const std::vector<Tape_input>& ins = tape().inputs();
    const std::vector<std::int32_t>& outs = tape().output_slots();
    const std::size_t in_count = ins.size();
    const std::size_t out_count = outs.size();
    for (std::size_t s0 = 0; s0 < samples; s0 += kTapeLane) {
        const int n = static_cast<int>(
            std::min(static_cast<std::size_t>(kTapeLane), samples - s0));
        for (std::size_t i = 0; i < in_count; ++i) {
            Value* dst = lane(ins[i].slot);
            const Value* src = inputs + s0 * in_count + i;
            for (int l = 0; l < n; ++l) {
                dst[l] = load(src[static_cast<std::size_t>(l) * in_count]);
            }
        }
        run(n);
        for (std::size_t o = 0; o < out_count; ++o) {
            const Value* src = lane(outs[o]);
            Value* dst = outputs + s0 * out_count + o;
            for (int l = 0; l < n; ++l) {
                dst[static_cast<std::size_t>(l) * out_count] = src[l];
            }
        }
    }
}

template class Lane_block<double>;
template class Lane_block<std::int64_t>;

}  // namespace islhls
