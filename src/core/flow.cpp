#include "core/flow.hpp"

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "ir/print.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

Hls_flow Hls_flow::from_source(const std::string& c_source, const Flow_options& options) {
    const Function_ast fn = parse_single_function(c_source);
    const Kernel_info info = analyze_kernel(fn);
    Stencil_step step = execute_symbolically(fn, info, options.symexec);
    return Hls_flow(std::move(step), info.kernel_name, options);
}

Hls_flow Hls_flow::from_kernel(const Kernel_def& kernel, const Flow_options& options) {
    const Function_ast fn = parse_single_function(kernel.c_source);
    const Kernel_info info = analyze_kernel(fn);
    Stencil_step step = execute_symbolically(fn, info, options.symexec);
    return Hls_flow(std::move(step), kernel.name, options);
}

Hls_flow::Hls_flow(Stencil_step step, std::string kernel_name,
                   const Flow_options& options)
    : options_(options), kernel_name_(std::move(kernel_name)) {
    library_ = std::make_unique<Cone_library>(std::move(step), kernel_name_);

    Evaluator_options evaluator_options;
    evaluator_options.frame_width = options_.frame_width;
    evaluator_options.frame_height = options_.frame_height;
    evaluator_options.format = options_.format;
    evaluator_options.synth.format = options_.format;
    evaluator_options.throughput = options_.throughput;
    evaluator_options.calibration_windows = options_.calibration_windows;

    // Flow_options::iterations is the authoritative iteration count; the copy
    // inside Space_options exists only so the Explorer reads one struct.
    // Overwrite it in the stored options too, so the two can never diverge.
    options_.space.iterations = options_.iterations;

    explorer_ = std::make_unique<Explorer>(*library_, device_by_name(options_.device),
                                           evaluator_options, options_.space);
    check_internal(explorer_->space().iterations == options_.iterations,
                   "Space_options::iterations diverged from Flow_options::iterations");
}

const Fpga_device& Hls_flow::device() const { return device_by_name(options_.device); }

std::string Hls_flow::generate_vhdl(int window, int depth) {
    Vhdl_options vhdl;
    vhdl.format = options_.format;
    return emit_cone(library_->cone(window, depth), kernel_name_, vhdl);
}

std::string Hls_flow::support_package() const {
    Vhdl_options vhdl;
    vhdl.format = options_.format;
    return emit_support_package(vhdl);
}

Pareto_result Hls_flow::pareto() { return explorer_->explore_pareto(); }

Fit_result Hls_flow::device_fit() { return explorer_->fit_device(); }

Area_validation Hls_flow::area_validation() {
    return explorer_->validate_area_model();
}

std::string Hls_flow::describe() {
    const Stencil_step& step = library_->step();
    std::string out = cat("kernel '", kernel_name_, "': ",
                          step.state_field_count(), " state field(s), ",
                          step.const_fields().size(), " constant field(s)\n");
    out += cat("single-step footprint ", to_string(step.footprint()), "\n");
    for (int i = 0; i < step.state_field_count(); ++i) {
        out += cat("  ", step.state_fields()[static_cast<std::size_t>(i)],
                   "' = ", to_infix(step.pool(), step.update(i)), "\n");
    }
    const Cone_stats& example = library_->stats(4, 2);
    out += cat("example ", to_string(example.spec), ": ", example.register_count,
               " registers, ", example.input_count, " inputs, reuse factor ",
               format_fixed(example.reuse_factor(), 2), "\n");
    return out;
}

}  // namespace islhls
