// The engine_frame workload: the frame engine on an out-of-cache frame.
//
// jacobi (double) and heat (fixed Q10.6) run 8 iterations over one
// 8192x6400 frame generated from the benchmark seed: 52.4 M cells, 400 MiB
// per double array, several times the probed last-level cache (both sizes
// are printed). Auto tiling (tile_iterations = 0) throughout; the 4-thread
// runs share one Thread_pool built during set-up. Ceilings measured in the
// same run sit beside the engine's rates: single-thread memcpy bandwidth
// over the same arrays, and a hand-written 5-point jacobi loop on the same
// input. Outputs are checked against the independent per-pixel reference
// interpreters (run_ir_reference, run_ir_fixed_reference) on sub-frames at
// the corners and the centre, and across thread counts by hash.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "host.hpp"
#include "kernels/kernels.hpp"
#include "sim/exec_engine.hpp"
#include "sim/golden.hpp"
#include "support/cache_info.hpp"
#include "support/parallel.hpp"
#include "symexec/executor.hpp"
#include "trace.hpp"

namespace flowbench {

using namespace islhls;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWidth = 8192;
constexpr int kHeight = 6400;
constexpr int kIterations = 8;
constexpr int kPatch = 48;  // reference sub-frame edge
const Fixed_format kFixed{10, 6};

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// Pixel values in [0, 255), drawn from the workload seed.
Frame_set seeded_frame(std::uint64_t seed) {
    Frame frame(kWidth, kHeight, 0.0);
    std::uint64_t state = seed;
    for (double& v : frame.data()) {
        v = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53 * 255.0;
    }
    Frame_set set(kWidth, kHeight);
    set.add_field("u", std::move(frame));
    return set;
}

std::uint64_t hash_words(const void* data, std::size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    return h;
}

std::uint64_t hash_frame(const Frame_set& set) {
    Scoped_span span("check", "hash");
    const std::vector<double>& d = set.field("u").data();
    return hash_words(d.data(), d.size() * sizeof(double));
}

std::uint64_t hash_raw(const Fixed_frame_result& r) {
    Scoped_span span("check", "hash");
    return hash_words(r.raw[0].data(), r.raw[0].size() * sizeof(std::int64_t));
}

// The hand-written 5-point jacobi sweep under clamp boundaries, with the
// kernel's own association order: 0.25 * (((up + down) + left) + right).
void hand_jacobi_step(const double* in, double* out, int w, int h) {
    for (int y = 0; y < h; ++y) {
        const double* up = in + static_cast<std::size_t>(std::max(y - 1, 0)) * w;
        const double* row = in + static_cast<std::size_t>(y) * w;
        const double* down = in + static_cast<std::size_t>(std::min(y + 1, h - 1)) * w;
        double* o = out + static_cast<std::size_t>(y) * w;
        o[0] = 0.25 * (((up[0] + down[0]) + row[0]) + row[1]);
        for (int x = 1; x < w - 1; ++x) {
            o[x] = 0.25 * (((up[x] + down[x]) + row[x - 1]) + row[x + 1]);
        }
        o[w - 1] = 0.25 * (((up[w - 1] + down[w - 1]) + row[w - 2]) + row[w - 1]);
    }
}

struct Patch {
    int x0 = 0;
    int y0 = 0;
};

// Patches whose outputs the reference must reproduce: each cell at least
// kIterations away from every cut (non-frame) edge sees exactly the frame's
// dependency cone.
std::vector<Patch> patches() {
    return {{0, 0},
            {kWidth - kPatch, kHeight - kPatch},
            {kWidth / 2 - kPatch / 2, kHeight / 2 - kPatch / 2}};
}

Frame_set crop(const Frame_set& set, const Patch& p) {
    const Frame& u = set.field("u");
    Frame sub(kPatch, kPatch, 0.0);
    for (int y = 0; y < kPatch; ++y) {
        std::memcpy(&sub.data()[static_cast<std::size_t>(y) * kPatch],
                    &u.data()[static_cast<std::size_t>(p.y0 + y) * kWidth + p.x0],
                    kPatch * sizeof(double));
    }
    Frame_set out(kPatch, kPatch);
    out.add_field("u", std::move(sub));
    return out;
}

bool inside(int local, int origin, int extent) {
    const bool low_cut = origin > 0;
    const bool high_cut = origin + kPatch < extent;
    return (!low_cut || local >= kIterations) &&
           (!high_cut || local < kPatch - kIterations);
}

template <typename Value, typename At>
bool patch_matches(const Patch& p, const std::vector<Value>& full, At&& reference) {
    for (int y = 0; y < kPatch; ++y) {
        if (!inside(y, p.y0, kHeight)) continue;
        for (int x = 0; x < kPatch; ++x) {
            if (!inside(x, p.x0, kWidth)) continue;
            const Value got =
                full[static_cast<std::size_t>(p.y0 + y) * kWidth + (p.x0 + x)];
            if (got != reference(x, y)) return false;
        }
    }
    return true;
}

bool double_matches_reference(const Stencil_step& step, const Frame_set& initial,
                              const Frame_set& out) {
    Scoped_span span("oracle", "jacobi double");
    for (const Patch& p : patches()) {
        const Frame_set ref =
            run_ir_reference(step, crop(initial, p), kIterations, Boundary::clamp);
        const Frame& r = ref.field("u");
        if (!patch_matches(p, out.field("u").data(),
                           [&](int x, int y) { return r.at(x, y); })) {
            return false;
        }
    }
    return true;
}

bool fixed_matches_reference(const Stencil_step& step, const Frame_set& initial,
                             const Fixed_frame_result& out) {
    Scoped_span span("oracle", "heat fixed");
    for (const Patch& p : patches()) {
        const Fixed_frame_result ref = run_ir_fixed_reference(
            step, crop(initial, p), kIterations, Boundary::clamp, kFixed);
        const std::vector<std::int64_t>& r = ref.raw[0];
        if (!patch_matches(p, out.raw[0], [&](int x, int y) {
                return r[static_cast<std::size_t>(y) * kPatch + x];
            })) {
            return false;
        }
    }
    return true;
}

struct Setup {
    std::optional<Frame_set> initial;
    std::optional<Stencil_step> jacobi_step;
    std::optional<Stencil_step> heat_step;
    std::unique_ptr<Exec_engine> jacobi;
    std::unique_ptr<Exec_engine> heat;
    std::unique_ptr<Thread_pool> pool;
};

void build_setup(Setup& s, const Run_args& args) {
    // Release the previous set-up (users before what they point into)
    // before allocating the next frame.
    s.pool.reset();
    s.heat.reset();
    s.jacobi.reset();
    s.heat_step.reset();
    s.jacobi_step.reset();
    s.initial.reset();
    s.initial.emplace(seeded_frame(args.seed));
    s.jacobi_step.emplace(extract_stencil(kernel_by_name("jacobi").c_source));
    s.heat_step.emplace(extract_stencil(kernel_by_name("heat").c_source));
    s.jacobi = std::make_unique<Exec_engine>(*s.jacobi_step);
    s.heat = std::make_unique<Exec_engine>(*s.heat_step);
    s.pool = std::make_unique<Thread_pool>(args.threads);
}

struct Cycle {
    double double_1t = 0.0;
    double fixed_1t = 0.0;
    double double_4t = 0.0;
    double fixed_4t = 0.0;
    double hand_1t = 0.0;
    double copy_gbps = 0.0;
};

template <typename F>
double timed(const char* name, F&& body) {
    Scoped_span span(name);
    const auto start = Clock::now();
    body();
    return seconds_since(start);
}

// Output hashes that every cycle after the first must repeat.
struct Reference {
    bool set = false;
    std::uint64_t double_hash = 0;
    std::uint64_t fixed_hash = 0;
};

// Checks a 1-thread output hash against the reference, or makes it the
// reference in the first cycle.
void same_output(std::uint64_t hash, std::uint64_t Reference::*field, Reference& ref,
                 const std::string& what, Run_result& result) {
    if (ref.set) {
        result.operation(hash == ref.*field, what + " repeats its first output");
    } else {
        ref.*field = hash;
    }
}

// One measurement cycle: jacobi double and heat Q10.6, 1 thread each. A full
// cycle also checks both outputs against the reference interpreters, runs
// both at args.threads on the shared pool, and times the ceilings (hand
// loop, copy) on the same input.
Cycle run_cycle(const Setup& s, const Run_args& args, bool full, Reference& ref,
                Run_result& result) {
    Cycle c;
    const Frame_set& initial = *s.initial;
    const Exec_options one{1, 0};
    Exec_options four{args.threads, 0};
    four.pool = s.pool.get();

    std::uint64_t double_hash = 0;
    {
        Frame_set out;
        c.double_1t = timed("engine.double_1t", [&] {
            out = s.jacobi->run(initial, kIterations, Boundary::clamp, one);
        });
        double_hash = hash_frame(out);
        same_output(double_hash, &Reference::double_hash, ref, "jacobi double 1 thread",
                    result);
        if (full) {
            result.operation(double_matches_reference(*s.jacobi_step, initial, out),
                             "jacobi double 1 thread matches run_ir_reference");
        }
    }
    std::uint64_t fixed_hash = 0;
    {
        Fixed_frame_result out;
        c.fixed_1t = timed("engine.fixed_1t", [&] {
            out = s.heat->run_fixed(initial, kIterations, Boundary::clamp, kFixed, one);
        });
        fixed_hash = hash_raw(out);
        same_output(fixed_hash, &Reference::fixed_hash, ref, "heat Q10.6 1 thread",
                    result);
        if (full) {
            result.operation(fixed_matches_reference(*s.heat_step, initial, out),
                             "heat Q10.6 1 thread matches run_ir_fixed_reference");
        }
    }
    ref.set = true;
    if (!full) return c;
    {
        // Ceilings on the same input: the hand loop, then a plain copy
        // between its two buffers.
        std::optional<Scoped_span> buffers(std::in_place, "engine.buffers");
        std::vector<double> a(initial.field("u").data());
        std::vector<double> b(a.size());
        buffers.reset();
        c.hand_1t = timed("engine.hand_loop", [&] {
            for (int it = 0; it < kIterations; ++it) {
                hand_jacobi_step(a.data(), b.data(), kWidth, kHeight);
                a.swap(b);
            }
        });
        note(std::string("hand loop bit-identical to the engine: ") +
             (hash_words(a.data(), a.size() * sizeof(double)) == double_hash ? "yes"
                                                                             : "no"));
        Scoped_span span("engine.copy");
        c.copy_gbps = copy_gbps(b.data(), a.data(), a.size(), 3);
    }
    {
        Frame_set out;
        c.double_4t = timed("engine.double_4t", [&] {
            out = s.jacobi->run(initial, kIterations, Boundary::clamp, four);
        });
        result.operation(hash_frame(out) == double_hash,
                         "jacobi double at " + std::to_string(args.threads) +
                             " threads equals 1 thread");
    }
    {
        Fixed_frame_result out;
        c.fixed_4t = timed("engine.fixed_4t", [&] {
            out = s.heat->run_fixed(initial, kIterations, Boundary::clamp, kFixed, four);
        });
        result.operation(hash_raw(out) == fixed_hash,
                         "heat Q10.6 at " + std::to_string(args.threads) +
                             " threads equals 1 thread");
    }
    return c;
}

}  // namespace

void run_engine_frame(const Run_args& args, Run_result& result) {
    const double cells = static_cast<double>(kWidth) * kHeight;
    const double array_mib = cells * sizeof(double) / (1024.0 * 1024.0);
    const Cache_topology& topo = cache_topology();
    note("frame " + std::to_string(kWidth) + "x" + std::to_string(kHeight) + ", " +
         std::to_string(array_mib) + " MiB per double array; probed LLC " +
         std::to_string(static_cast<double>(topo.llc_bytes) / (1024.0 * 1024.0)) +
         " MiB");

    Setup setup;
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        const auto start = Clock::now();
        build_setup(setup, args);
        setups.push_back(seconds_since(start));
    }
    result.e2e("setup_s", median(setups), "s");

    // The first cycle is full: it checks the outputs and measures the
    // threaded runs and the ceilings. Untraced, short cycles then time the
    // 1-thread runs for the rest of the window; traced, the same full cycle
    // runs again under the trace.
    const Window window(args.seconds);
    Reference ref;
    const auto first_start = Clock::now();
    std::vector<Cycle> cycles{run_cycle(setup, args, true, ref, result)};
    const Cycle first = cycles.front();
    const double untraced_wall = seconds_since(first_start);

    Trace trace;
    double traced_wall = 0.0;
    if (args.trace) {
        cycles.clear();
        g_trace = &trace;
        const auto start = Clock::now();
        cycles.push_back(run_cycle(setup, args, true, ref, result));
        traced_wall = seconds_since(start);
        g_trace = nullptr;
    } else {
        std::vector<double> walls{first.double_1t + first.fixed_1t};
        while (window.another(walls)) {
            cycles.push_back(run_cycle(setup, args, false, ref, result));
            walls.push_back(cycles.back().double_1t + cycles.back().fixed_1t);
        }
        result.timing("wall_s", walls);
    }

    auto med = [&](double Cycle::*field) {
        std::vector<double> v;
        for (const Cycle& c : cycles) v.push_back(c.*field);
        return median(v);
    };
    const Cycle& full = args.trace ? cycles.front() : first;
    const double work = cells * kIterations * 1e-6;  // Mcells per run
    const double mcells_1t = work / med(&Cycle::double_1t);
    const double fixed_1t = work / med(&Cycle::fixed_1t);
    const double mcells_4t = work / full.double_4t;
    const double fixed_4t = work / full.fixed_4t;
    const double hand = work / full.hand_1t;
    const double gbps = full.copy_gbps;
    // Memory roofline of an untiled sweep: one 8-byte read and one 8-byte
    // write per cell and iteration, at the measured copy bandwidth.
    const double roofline = gbps * 1e3 / 16.0;
    report_line("engine_1t_mcells", mcells_1t, "Mcells/s");
    report_line("engine_fixed_1t_mcells", fixed_1t, "Mcells/s");
    report_line("engine_4t_mcells", mcells_4t, "Mcells/s (one run)");
    report_line("engine_fixed_4t_mcells", fixed_4t, "Mcells/s (one run)");
    report_line("hand_loop_1t_mcells", hand, "Mcells/s");
    report_line("copy_gbps", gbps, "GB/s");
    report_line("roofline_mcells", roofline, "Mcells/s");

    if (!args.trace) return;
    result.layer("engine.mcells_1t", mcells_1t, "Mcells/s");
    result.layer("engine.mcells_4t", mcells_4t, "Mcells/s");
    result.layer("engine.fixed_mcells_1t", fixed_1t, "Mcells/s");
    result.layer("engine.fixed_mcells_4t", fixed_4t, "Mcells/s");
    result.layer("engine.hand_loop_mcells", hand, "Mcells/s");
    result.layer("engine.copy_gbps", gbps, "GB/s");
    result.layer("engine.roofline_frac", mcells_1t / roofline, "ratio");
    result.layer("engine.hand_loop_ratio", mcells_1t / hand, "ratio");
    result.layer("engine.bytes_computed", 16.0 * cells * kIterations, "bytes");
    finish_trace(args, trace, traced_wall, untraced_wall, result);
}

}  // namespace flowbench
