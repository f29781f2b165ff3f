#include "cone/cone.hpp"

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

std::string to_string(const Cone_spec& spec) {
    return cat("cone(", spec.window_width, "x", spec.window_height, ", depth ",
               spec.depth, ")");
}

Cone::Cone(Stencil_step& step, const Cone_spec& spec) : step_(&step), spec_(spec) {
    check_internal(spec.window_width >= 1 && spec.window_height >= 1 && spec.depth >= 1,
                   cat("invalid ", to_string(spec)));

    const int fields = step.state_field_count();
    outputs_.reserve(static_cast<std::size_t>(fields) * spec.window_width *
                     spec.window_height);
    for (int s = 0; s < fields; ++s) {
        for (int y = 0; y < spec.window_height; ++y) {
            for (int x = 0; x < spec.window_width; ++x) {
                outputs_.push_back(step.unrolled(s, spec.depth, x, y));
            }
        }
    }

    program_ = build_program(step.pool(), outputs_);

    stats_.spec = spec;
    stats_.register_count = program_.register_count();
    stats_.input_count = program_.input_count();
    stats_.output_count = static_cast<int>(outputs_.size());
    stats_.pipeline_depth = program_.depth();
    Program_census census = census_of(program_);
    stats_.census = std::move(census.ops);
    stats_.input_window = input_window_for(
        Window{0, 0, spec.window_width, spec.window_height}, step.footprint(),
        spec.depth);
    stats_.naive_operation_count = census.naive_operation_count;
}

int Cone::output_index(int state_field, int x, int y) const {
    check_internal(state_field >= 0 && state_field < step_->state_field_count(),
                   "output_index: bad field");
    check_internal(x >= 0 && x < spec_.window_width && y >= 0 &&
                       y < spec_.window_height,
                   "output_index: bad position");
    return (state_field * spec_.window_height + y) * spec_.window_width + x;
}

}  // namespace islhls
