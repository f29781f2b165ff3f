#include "sim/exec_engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>

#include "support/cache_info.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace islhls {

namespace {

// Everything one step execution needs, fixed before the row loops start.
// The value domain is the lane block's: doubles, or raw Qm.f words of one
// format. The banded path copies this per band and retargets the field
// bindings at every fused level; `field_row_off` / `out_row_off` translate
// full-frame row coordinates into band-buffer rows (zero when a binding
// points at a whole frame).
template <class Value>
struct Step_context {
    // The block every workspace copies: the engine's lane layout with the
    // run's constants pinned.
    const Lane_block<Value>* block = nullptr;
    const Compiled_program* cp = nullptr;
    int width = 0;
    int height = 0;
    // Interior columns [x0, x1) read in-range for every input offset; the
    // border columns (the rest) resolve their reads through the boundary.
    int x0 = 0;
    int x1 = 0;
    std::vector<int> border_cols;
    Boundary boundary = Boundary::clamp;
    std::vector<const Value*> field_base;  // per pool field index
    std::vector<int> field_row_off;        // per pool field index
    // Per pool field: nonzero when row reads index the binding directly at
    // the unclamped row (y + dy - row_off) with no boundary resolution —
    // the wrapped-halo band buffers of Boundary::periodic, whose rows past
    // the frame edge hold the opposite edge's content.
    std::vector<std::uint8_t> field_direct_rows;
    std::vector<Value*> out_base;          // per state field
    int out_row_off = 0;
    // Banded execution: pool field index of every state field (declaration
    // order), so levels can rebind just the advancing fields.
    std::vector<int> state_pool_field;
};

// Per-worker state: a private copy of the lane block, the source row of
// every input port for the current row, and the two `band` buffers that
// ping-pong the interim levels of temporal tiling (sized lazily per band:
// edge bands under Boundary::periodic can need more rows than interior
// bands).
template <class Value>
struct Workspace {
    explicit Workspace(const Step_context<Value>& c)
        : block(*c.block), row(c.cp->inputs().size(), nullptr) {}

    Lane_block<Value> block;
    std::vector<const Value*> row;  // per input port; nullptr = a zero row
    std::array<std::vector<Value>, 2> band;
};

// Reusable workspaces for the row blocks and bands; lane and band contents
// never influence results, so which worker gets which workspace is
// irrelevant to the determinism contract.
template <class Value>
class Workspace_pool {
public:
    explicit Workspace_pool(const Step_context<Value>& context) : context_(&context) {}

    std::unique_ptr<Workspace<Value>> acquire() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!free_.empty()) {
                std::unique_ptr<Workspace<Value>> ws = std::move(free_.back());
                free_.pop_back();
                return ws;
            }
        }
        return std::make_unique<Workspace<Value>>(*context_);
    }

    void release(std::unique_ptr<Workspace<Value>> ws) {
        const std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(ws));
    }

private:
    const Step_context<Value>* context_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<Workspace<Value>>> free_;
};

// Rows [y0, y1) of one step, through the worker's lane block. Per row:
//
//   - each input port's source row is resolved once (boundary policy on
//     the row coordinate; nullptr for a Boundary::zero row off the frame);
//   - the interior advances in kTapeLane-wide chunks: the static dx makes
//     each port's source span contiguous, so the gather is one memcpy per
//     port, then one kernel call over the tape, then one memcpy per output;
//   - the border columns run as one more pass (in kTapeLane chunks should a
//     stencil ever be that wide), every read resolved through the boundary
//     policy like the reference interpreter (0 backs Boundary::zero, raw 0
//     in the fixed domain, like run_fixed_raw's gathered zeros).
//
// Frame words are already in the domain (fixed words are quantized and
// every producing op wraps), so neither gather re-wraps. Every cell runs the
// same op sequence on the same operands whatever its chunk, so results are
// bit-identical to the scalar oracles at any width.
template <class Value>
void exec_rows(const Step_context<Value>& c, Workspace<Value>& ws, int y0, int y1) {
    const int w = c.width;
    const std::vector<Tape_input>& inputs = c.cp->inputs();
    const std::vector<std::int32_t>& out_slots = c.cp->output_slots();
    Lane_block<Value>& block = ws.block;
    const auto border = static_cast<int>(c.border_cols.size());

    for (int y = y0; y < y1; ++y) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const Tape_input& in = inputs[i];
            const auto f = static_cast<std::size_t>(in.field);
            const int ry = c.field_direct_rows[f]
                               ? y + in.dy
                               : resolve_coordinate(y + in.dy, c.height, c.boundary);
            ws.row[i] = c.field_direct_rows[f] || ry >= 0
                            ? c.field_base[f] +
                                  static_cast<std::size_t>(ry - c.field_row_off[f]) * w
                            : nullptr;
        }
        const std::size_t out_row = static_cast<std::size_t>(y - c.out_row_off) * w;

        for (int xb = c.x0; xb < c.x1; xb += kTapeLane) {
            const int n = std::min(kTapeLane, c.x1 - xb);
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                if (ws.row[i]) {
                    block.copy_in(inputs[i].slot, ws.row[i] + (xb + inputs[i].dx), n);
                } else {
                    Value* dst = block.lane(inputs[i].slot);
                    std::fill(dst, dst + n, Value{});
                }
            }
            block.run(n);
            for (std::size_t s = 0; s < c.out_base.size(); ++s) {
                block.copy_out(out_slots[s], c.out_base[s] + out_row + xb, n);
            }
        }

        for (int b0 = 0; b0 < border; b0 += kTapeLane) {
            const int n = std::min(kTapeLane, border - b0);
            const int* cols = c.border_cols.data() + b0;
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                Value* dst = block.lane(inputs[i].slot);
                const Value* row = ws.row[i];
                for (int l = 0; l < n; ++l) {
                    const int rx = resolve_coordinate(cols[l] + inputs[i].dx, w, c.boundary);
                    dst[l] = row && rx >= 0 ? row[rx] : Value{};
                }
            }
            block.run(n);
            for (std::size_t s = 0; s < c.out_base.size(); ++s) {
                const Value* src = block.lane(out_slots[s]);
                for (int l = 0; l < n; ++l) c.out_base[s][out_row + cols[l]] = src[l];
            }
        }
    }
}

// --- temporal tiling --------------------------------------------------------------

// Rows [lo, hi) at one fused level of a band (frame coordinates).
struct Band_level {
    int lo = 0;
    int hi = 0;
};

// The trapezoid of one band: level[k] holds the rows computed k fused steps
// into the block, for k in [1, depth]; level[depth] is the band's output
// rows, level[0] the rows the band reads from the block's input frame
// (kept for sizing/diagnostics, nothing is computed at level 0).
struct Band_plan {
    std::vector<Band_level> level;
    // Tallest interim level (k in [1, depth)); sizes the band buffers.
    int interim_rows = 0;
};

// Minimal in-frame interval covering every boundary-resolved read of the
// unclamped rows [lo, hi), for the non-periodic boundaries: out-of-range
// overhang rows resolve to edge-adjacent rows (clamp/mirror) or drop out
// entirely (zero). Periodic bands never come here — their interim levels
// keep the unclamped interval itself and carry wrapped halo rows.
Band_level resolve_row_interval(int lo, int hi, int h, Boundary b) {
    int a = std::max(lo, 0);
    int z = std::min(hi, h) - 1;  // inclusive
    check_internal(a <= z, "resolve_row_interval: empty in-range span");
    for (int y = lo; y < 0; ++y) {
        const int ry = resolve_coordinate(y, h, b);
        if (ry >= 0) {
            a = std::min(a, ry);
            z = std::max(z, ry);
        }
    }
    for (int y = h; y < hi; ++y) {
        const int ry = resolve_coordinate(y, h, b);
        if (ry >= 0) {
            a = std::min(a, ry);
            z = std::max(z, ry);
        }
    }
    return {a, z + 1};
}

// Plans the bands of one fused block: output rows are split into bands of
// `band_rows`, and each band's interim levels grow by the per-step state
// halo (up rows above, down rows below). Non-periodic boundaries resolve
// each level into the frame; under Boundary::periodic the levels keep their
// unclamped intervals — on a torus row r and row r mod h are the same row
// at every fused level, so a band buffer can carry its out-of-frame halo
// rows directly (computed like any other row, reading level 1 through the
// wrapping boundary policy) and the interim intervals stay band-sized at
// the frame edges instead of widening toward the whole frame.
std::vector<Band_plan> plan_bands(int h, int band_rows, int depth, int up, int down,
                                  Boundary b) {
    std::vector<Band_plan> plans;
    plans.reserve(static_cast<std::size_t>((h + band_rows - 1) / band_rows));
    for (int b0 = 0; b0 < h; b0 += band_rows) {
        Band_plan plan;
        plan.level.assign(static_cast<std::size_t>(depth) + 1, Band_level{});
        plan.level[static_cast<std::size_t>(depth)] = {b0,
                                                       std::min(b0 + band_rows, h)};
        for (int k = depth - 1; k >= 0; --k) {
            const Band_level& next = plan.level[static_cast<std::size_t>(k) + 1];
            plan.level[static_cast<std::size_t>(k)] =
                b == Boundary::periodic
                    ? Band_level{next.lo - up, next.hi + down}
                    : resolve_row_interval(next.lo - up, next.hi + down, h, b);
        }
        for (int k = 1; k < depth; ++k) {
            const Band_level& lv = plan.level[static_cast<std::size_t>(k)];
            plan.interim_rows = std::max(plan.interim_rows, lv.hi - lv.lo);
        }
        plans.push_back(std::move(plan));
    }
    return plans;
}

// Carries one band through every fused level of its block. The shared
// context `c` holds the block's input-frame and output-frame bindings; the
// local copy retargets the state fields at each level:
//
//   level 1        reads the input frame, writes band buffer 1;
//   level k (1<k<T) reads band buffer (k-1)&1, writes band buffer k&1;
//   level T        reads the last band buffer, writes the output frame
//                  (only the band's own rows — bands never overlap there).
//
// Const fields always read the full input frame, and every level runs the
// same exec_rows code as the untiled sweep, so each cell value is computed
// by the identical instruction sequence as in the double-buffered path.
// Under Boundary::periodic the band-buffer bindings are marked direct-row:
// the buffers hold unclamped (wrapped-halo) intervals, so reads between
// interim levels index them at the unclamped row with no boundary
// resolution, while level-1 reads and const-field reads still wrap against
// the frame.
template <class Value>
void exec_band(const Step_context<Value>& c, Workspace<Value>& ws,
               const Band_plan& plan) {
    const int depth = static_cast<int>(plan.level.size()) - 1;
    const auto w = static_cast<std::size_t>(c.width);
    const std::size_t stride = static_cast<std::size_t>(plan.interim_rows) * w;
    const std::size_t states = c.state_pool_field.size();
    if (depth > 1) {
        for (std::vector<Value>& buf : ws.band) {
            if (buf.size() < stride * states) buf.resize(stride * states);
        }
    }

    Step_context<Value> local = c;
    const bool direct = c.boundary == Boundary::periodic;
    for (int k = 1; k <= depth; ++k) {
        const Band_level out = plan.level[static_cast<std::size_t>(k)];
        if (k > 1) {
            const Band_level in = plan.level[static_cast<std::size_t>(k) - 1];
            const Value* base = ws.band[static_cast<std::size_t>((k - 1) & 1)].data();
            for (std::size_t s = 0; s < states; ++s) {
                const auto f = static_cast<std::size_t>(c.state_pool_field[s]);
                local.field_base[f] = base + s * stride;
                local.field_row_off[f] = in.lo;
                if (direct) local.field_direct_rows[f] = 1;
            }
        }
        if (k == depth) {
            local.out_base = c.out_base;
            local.out_row_off = c.out_row_off;
        } else {
            Value* base = ws.band[static_cast<std::size_t>(k & 1)].data();
            for (std::size_t s = 0; s < states; ++s) {
                local.out_base[s] = base + s * stride;
            }
            local.out_row_off = out.lo;
        }
        exec_rows(local, ws, out.lo, out.hi);
    }
}

// Resolved auto-tiling budgets: explicit (pinned) fields win, zero fields
// come from the probed cache topology. The probe's own fallbacks reproduce
// the engine's historical fixed budgets (LLC fallback 32 MiB = the old tile
// constant, /4 = the old 8 MiB band constant).
struct Resolved_budgets {
    std::size_t tile_bytes;
    std::size_t band_bytes;
};

Resolved_budgets resolve_budgets(const Exec_budgets& pinned) {
    const Cache_topology& cache = cache_topology();
    Resolved_budgets r;
    r.tile_bytes = pinned.tile_bytes ? pinned.tile_bytes : cache.llc_bytes;
    r.band_bytes = pinned.band_bytes ? pinned.band_bytes : cache.llc_bytes / 4;
    return r;
}

// Auto tile depth: fusing is pure overhead while both frame buffers sit in
// cache, so stay untiled below the tile budget; above it, eight fused steps
// capture most of the traffic reduction (1/8th of the memory round trips)
// while keeping the trapezoid recompute low.
int auto_tile_depth(std::size_t state_bytes, int iterations, std::size_t tile_budget) {
    if (iterations <= 1 || 2 * state_bytes <= tile_budget) return 1;
    return std::min(iterations, 8);
}

// Auto band height: size a band so its working set (two interim buffers of
// every state field) stays inside the band budget, keep the halo recompute
// overhead bounded (band at least 4x the total halo growth), and leave at
// least two bands per thread for load balance.
int auto_band_rows(int width, int h, int depth, int states, int growth, int threads,
                   std::size_t band_budget) {
    const std::size_t level_row_bytes = 2 * static_cast<std::size_t>(states) *
                                        static_cast<std::size_t>(width) *
                                        sizeof(double);
    long rows = static_cast<long>(band_budget / std::max<std::size_t>(level_row_bytes, 1));
    rows -= static_cast<long>(depth - 1) * growth;
    rows = std::max(rows, 4L * (depth - 1) * growth);
    rows = std::max(rows, 16L);
    if (threads > 1) {
        rows = std::min(rows, static_cast<long>((h + 2 * threads - 1) / (2 * threads)));
    }
    return static_cast<int>(std::clamp(rows, 1L, static_cast<long>(h)));
}

// --- double-buffered driver -------------------------------------------------------

// The context of one run over a `w` x `h` frame, with every binding still
// unset: the caller fills field_base / out_base per parity.
template <class Value>
Step_context<Value> make_context(const Stencil_step& step, const Lane_block<Value>& block,
                                 int w, int h, Boundary b, int left_margin,
                                 int right_margin) {
    const Expr_pool& pool = step.pool();
    Step_context<Value> context;
    context.block = &block;
    context.cp = &block.tape();
    context.width = w;
    context.height = h;
    context.x0 = std::min(left_margin, w);
    context.x1 = std::max(context.x0, w - right_margin);
    for (int x = 0; x < w; ++x) {
        if (x < context.x0 || x >= context.x1) context.border_cols.push_back(x);
    }
    context.boundary = b;
    context.field_base.resize(static_cast<std::size_t>(pool.field_count()));
    context.field_row_off.assign(static_cast<std::size_t>(pool.field_count()), 0);
    context.field_direct_rows.assign(static_cast<std::size_t>(pool.field_count()), 0);
    context.out_base.resize(step.state_fields().size());
    context.state_pool_field.reserve(step.state_fields().size());
    for (const std::string& name : step.state_fields()) {
        context.state_pool_field.push_back(pool.find_field(name));
    }
    return context;
}

// Runs `iterations` steps over a pair of pre-bound frame buffers. `bases[p]`
// holds the per-pool-field base pointers of buffer parity p, `outs[p]` the
// state-field output pointers written while parity p is current (i.e. into
// the other buffer); const fields point at the same storage in both
// parities when the caller shares it. Returns the parity holding the final
// frames. `context` carries everything else (the lane block, the border
// columns) and is identical for the whole run apart from the per-block
// pointer rebinding done here.
template <class Value>
int run_buffers(Step_context<Value>& context, int iterations, Boundary b,
                const Exec_options& options, int state_up, int state_down,
                const std::array<std::vector<const Value*>, 2>& bases,
                const std::array<std::vector<Value*>, 2>& outs) {
    const int w = context.width;
    const int h = context.height;

    const int total_threads = options.pool ? options.pool->thread_count()
                                           : resolve_thread_count(options.threads);

    // Resolve the tiling: fused depth first, band height second. Budgets
    // come pinned from the options or from the probed cache topology;
    // either way they only pick the schedule — every (depth, band) choice
    // is byte-identical.
    const Resolved_budgets budgets = resolve_budgets(options.budgets);
    const std::size_t state_bytes =
        static_cast<std::size_t>(w) * static_cast<std::size_t>(h) * sizeof(Value) *
        std::max<std::size_t>(context.state_pool_field.size(), 1);
    int depth = options.tile_iterations;
    if (depth == 0) {
        depth = auto_tile_depth(state_bytes, iterations, budgets.tile_bytes);
    }
    depth = std::clamp(depth, 1, iterations);
    const int growth = state_up + state_down;
    int band_rows = options.band_rows;
    if (depth > 1) {
        if (band_rows <= 0) {
            band_rows = auto_band_rows(
                w, h, depth, static_cast<int>(context.state_pool_field.size()), growth,
                total_threads, budgets.band_bytes);
        }
        band_rows = std::clamp(band_rows, 1, h);
    }

    // A run has at most two distinct fused depths: the full blocks and one
    // shorter tail block. Plan both up front; the plans are reused across
    // every block of that depth.
    const int tail_depth = depth > 1 ? iterations % depth : 0;
    std::vector<Band_plan> full_plans;
    std::vector<Band_plan> tail_plans;
    if (depth > 1) full_plans = plan_bands(h, band_rows, depth, state_up, state_down, b);
    if (tail_depth > 1) {
        tail_plans = plan_bands(h, band_rows, tail_depth, state_up, state_down, b);
    }

    // The row/band fan-out: an external pool when the caller shares one,
    // otherwise a pool owned by this run; serial runs loop in place.
    std::optional<Thread_pool> own_pool;
    Thread_pool* thread_pool = nullptr;
    if (total_threads > 1 && h > 1) {
        if (options.pool) {
            thread_pool = options.pool;
        } else {
            own_pool.emplace(total_threads);
            thread_pool = &*own_pool;
        }
    }
    Workspace_pool<Value> workspaces(context);
    auto fan_out = [&](std::size_t count, const auto& body) {
        auto one = [&](std::size_t i) {
            std::unique_ptr<Workspace<Value>> ws = workspaces.acquire();
            body(*ws, i);
            workspaces.release(std::move(ws));
        };
        if (thread_pool) {
            thread_pool->for_each_index(count, one);
        } else {
            for (std::size_t i = 0; i < count; ++i) one(i);
        }
    };

    int cur = 0;
    int it = 0;
    while (it < iterations) {
        const int block = std::min(depth, iterations - it);
        context.field_base = bases[static_cast<std::size_t>(cur)];
        context.out_base = outs[static_cast<std::size_t>(cur)];
        if (block <= 1) {
            // Classic untiled sweep: one pass over the frame, row blocks
            // fanned across the pool.
            const std::size_t blocks =
                thread_pool ? static_cast<std::size_t>(
                                  std::min(h, thread_pool->thread_count() * 4))
                            : 1;
            fan_out(blocks, [&](Workspace<Value>& ws, std::size_t i) {
                const int b0 = static_cast<int>(i * static_cast<std::size_t>(h) / blocks);
                const int b1 =
                    static_cast<int>((i + 1) * static_cast<std::size_t>(h) / blocks);
                exec_rows(context, ws, b0, b1);
            });
        } else {
            const std::vector<Band_plan>& plans =
                block == depth ? full_plans : tail_plans;
            fan_out(plans.size(), [&](Workspace<Value>& ws, std::size_t i) {
                exec_band(context, ws, plans[i]);
            });
        }
        cur ^= 1;
        it += block;
    }
    return cur;
}

}  // namespace

Exec_engine::Exec_engine(const Stencil_step& step)
    : step_(&step),
      program_(build_program(step.pool(), step.updates())),
      layout_(compact_lanes(program_.compiled())) {
    const Compiled_program& cp = program_.compiled();
    left_margin_ = std::max(0, -cp.min_dx());
    right_margin_ = std::max(0, cp.max_dx());
    // The per-iteration band halo grows with the advancing fields only:
    // const fields never change, so their reads hit the full frame at every
    // fused level and do not widen the trapezoid.
    const std::vector<Field_extent>& extents = cp.field_extents();
    for (std::size_t f = 0; f < extents.size(); ++f) {
        if (!extents[f].used || !step.is_state_index(static_cast<int>(f))) continue;
        state_up_ = std::max(state_up_, -extents[f].min_dy);
        state_down_ = std::max(state_down_, extents[f].max_dy);
    }
}

int Exec_engine::planned_interim_rows(int height, int band_rows, int depth,
                                      Boundary b) const {
    check_internal(height > 0 && depth >= 1, "planned_interim_rows: bad geometry");
    band_rows = std::clamp(band_rows, 1, height);
    const std::vector<Band_plan> plans =
        plan_bands(height, band_rows, depth, state_up_, state_down_, b);
    int rows = 0;
    for (const Band_plan& plan : plans) rows = std::max(rows, plan.interim_rows);
    return rows;
}

Frame_set Exec_engine::run(const Frame_set& initial, int iterations, Boundary b,
                           const Exec_options& options) const {
    if (options.fixed_format) {
        return run_fixed(initial, iterations, b, *options.fixed_format, options)
            .to_frame_set();
    }
    if (iterations <= 0) return initial;
    const int w = initial.width();
    const int h = initial.height();
    const Expr_pool& pool = step_->pool();

    // Double buffers in canonical field order (state first, then const);
    // const fields are copied once and never rewritten.
    Frame_set buf_a(w, h);
    Frame_set buf_b(w, h);
    for (const std::string& name : step_->state_fields()) {
        buf_a.add_field(name, initial.field(name));
        buf_b.add_field(name);
    }
    for (const std::string& name : step_->const_fields()) {
        buf_a.add_field(name, initial.field(name));
        buf_b.add_field(name, initial.field(name));
    }
    if (w == 0 || h == 0) return buf_a;

    const Lane_block<double> block(layout_);
    Step_context<double> context =
        make_context(*step_, block, w, h, b, left_margin_, right_margin_);
    // Both buffers were built with identical field order, so one positional
    // mapping (pool field -> buffer index) serves every rebinding below.
    std::array<std::vector<const double*>, 2> bases;
    std::array<std::vector<double*>, 2> outs;
    bases[0].resize(static_cast<std::size_t>(pool.field_count()));
    bases[1].resize(static_cast<std::size_t>(pool.field_count()));
    for (int f = 0; f < pool.field_count(); ++f) {
        const auto idx = static_cast<std::size_t>(
            buf_a.index_of(intern_field(pool.field_name(f))));
        bases[0][static_cast<std::size_t>(f)] = buf_a.frame_at(idx).data().data();
        bases[1][static_cast<std::size_t>(f)] = buf_b.frame_at(idx).data().data();
    }
    outs[0].resize(step_->state_fields().size());
    outs[1].resize(step_->state_fields().size());
    for (std::size_t s = 0; s < step_->state_fields().size(); ++s) {
        outs[0][s] = buf_b.frame_at(s).data().data();
        outs[1][s] = buf_a.frame_at(s).data().data();
    }

    const int final_parity =
        run_buffers(context, iterations, b, options, state_up_, state_down_, bases, outs);
    return std::move(final_parity == 0 ? buf_a : buf_b);
}

Fixed_frame_result Exec_engine::run_fixed(const Frame_set& initial, int iterations,
                                          Boundary b, const Fixed_format& format,
                                          const Exec_options& options) const {
    const int w = initial.width();
    const int h = initial.height();
    const Expr_pool& pool = step_->pool();
    const Raw_quantizer quantize(format);
    const std::size_t elements = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);

    Fixed_frame_result result;
    result.width = w;
    result.height = h;
    result.format = format;

    // Quantize once into raw buffers: state fields double-buffered, const
    // fields shared by both parities (they are never rewritten).
    auto quantize_field = [&](const Frame& frame) {
        std::vector<std::int64_t> raw(elements);
        const std::vector<double>& data = frame.data();
        for (std::size_t i = 0; i < elements; ++i) raw[i] = quantize(data[i]);
        return raw;
    };
    std::vector<std::vector<std::int64_t>> state_a;
    std::vector<std::vector<std::int64_t>> state_b;
    std::vector<std::vector<std::int64_t>> const_raw;
    for (const std::string& name : step_->state_fields()) {
        result.names.push_back(name);
        state_a.push_back(quantize_field(initial.field(name)));
        state_b.emplace_back(elements, 0);
    }
    for (const std::string& name : step_->const_fields()) {
        result.names.push_back(name);
        const_raw.push_back(quantize_field(initial.field(name)));
    }

    auto finish = [&](std::vector<std::vector<std::int64_t>>&& state) {
        result.raw = std::move(state);
        for (std::vector<std::int64_t>& raw : const_raw) {
            result.raw.push_back(std::move(raw));
        }
        return std::move(result);
    };
    if (iterations <= 0 || w == 0 || h == 0) return finish(std::move(state_a));

    // The constants quantize once per run; every worker copies the block.
    const Lane_block<std::int64_t> block(layout_, format);
    Step_context<std::int64_t> context =
        make_context(*step_, block, w, h, b, left_margin_, right_margin_);
    std::array<std::vector<const std::int64_t*>, 2> bases;
    std::array<std::vector<std::int64_t*>, 2> outs;
    bases[0].resize(static_cast<std::size_t>(pool.field_count()));
    bases[1].resize(static_cast<std::size_t>(pool.field_count()));
    for (std::size_t s = 0; s < state_a.size(); ++s) {
        const auto f = static_cast<std::size_t>(context.state_pool_field[s]);
        bases[0][f] = state_a[s].data();
        bases[1][f] = state_b[s].data();
    }
    for (std::size_t k = 0; k < const_raw.size(); ++k) {
        const auto f = static_cast<std::size_t>(
            pool.find_field(step_->const_fields()[k]));
        bases[0][f] = const_raw[k].data();
        bases[1][f] = const_raw[k].data();
    }
    outs[0].resize(state_a.size());
    outs[1].resize(state_a.size());
    for (std::size_t s = 0; s < state_a.size(); ++s) {
        outs[0][s] = state_b[s].data();
        outs[1][s] = state_a[s].data();
    }

    const int final_parity =
        run_buffers(context, iterations, b, options, state_up_, state_down_, bases, outs);
    return finish(final_parity == 0 ? std::move(state_a) : std::move(state_b));
}

Frame_set Fixed_frame_result::to_frame_set() const {
    Frame_set frames(width, height);
    for (std::size_t i = 0; i < names.size(); ++i) {
        Frame frame(width, height);
        std::vector<double>& data = frame.data();
        for (std::size_t j = 0; j < raw[i].size(); ++j) {
            data[j] = from_raw(raw[i][j], format);
        }
        frames.add_field(names[i], std::move(frame));
    }
    return frames;
}

}  // namespace islhls
