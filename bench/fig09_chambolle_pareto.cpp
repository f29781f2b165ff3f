// Figure 9 reproduction: Chambolle Pareto curve (1024x768).
#include <algorithm>

#include "bench_common.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

int main() {
    using namespace islhls;
    using namespace islhls_bench;

    std::cout << "=== Fig. 9: Chambolle Pareto curve (1024x768) ===\n\n";

    Hls_flow flow = Hls_flow::from_kernel(kernel_by_name("chambolle"), paper_options());
    const auto result = flow.pareto();
    const auto igf_result =
        Hls_flow::from_kernel(kernel_by_name("igf"), paper_options()).pareto();

    std::cout << "evaluated " << result.points.size() << " design points, Pareto set of "
              << result.front.size() << "\n\n";

    Table table({"kLUTs (est)", "ms/frame", "fps", "architecture"});
    for (std::size_t idx : result.front) {
        const auto& p = result.points[idx];
        table.add(format_fixed(p.estimated_area_luts / 1000.0, 1),
                  format_fixed(p.throughput.seconds_per_frame * 1e3, 2),
                  format_fixed(p.throughput.fps, 1), to_string(p.instance));
    }
    std::cout << table << "\n";

    report_claim("Pareto set is non-empty", !result.front.empty());

    // The paper's two curves differ by roughly the workload complexity:
    // at comparable area, Chambolle is several times slower than IGF.
    auto best_time_under = [](const Pareto_result& r, double area_cap) {
        double best = 1e30;
        for (const auto& p : r.points) {
            if (p.estimated_area_luts <= area_cap) {
                best = std::min(best, p.throughput.seconds_per_frame);
            }
        }
        return best;
    };
    const double cap = 300e3;
    const double chamb = best_time_under(result, cap);
    const double igf = best_time_under(igf_result, cap);
    report_claim(cat("at 300 kLUTs, Chambolle is >=3x slower than IGF (",
                     format_fixed(chamb / igf, 1), "x)"),
                 chamb > 3.0 * igf);
    return 0;
}
