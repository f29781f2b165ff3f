// Sweep service tests: exact round-trip identity for every cached payload
// type, cache-key discipline, and the headline service contract — a warm
// cache re-serves a request byte-identically while running zero syntheses,
// zero cone builds and zero format searches; batch mode dedups identical
// requests and reports structured per-request failures.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "core/service.hpp"
#include "core/sweep.hpp"
#include "core/sweep_records.hpp"
#include "support/text.hpp"

namespace islhls {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
    const std::string dir =
        (fs::temp_directory_path() / cat("islhls-service-test-", name)).string();
    fs::remove_all(dir);
    return dir;
}

// A small but fully populated sweep config exercising every cached payload
// type (entries, format grids, syntheses) in well under a second.
Sweep_config small_config() {
    Sweep_config config;
    config.kernels = {"igf"};
    config.devices = {"xc6vlx760"};
    config.iteration_counts = {2};
    config.frame_width = 64;
    config.frame_height = 48;
    config.space.max_window = 3;
    config.space.max_depth = 2;
    config.validate = true;
    config.search_formats = true;
    config.format_search.target_psnr_db = 45.0;
    return config;
}

// --- payload round trips ----------------------------------------------------------

Sweep_entry make_full_entry() {
    Sweep_entry entry;
    entry.kernel = "igf";
    entry.device = "xc6vlx760";
    entry.iterations = 7;
    entry.fits = true;
    entry.best.instance.window = 3;
    entry.best.instance.level_depths = {2, 2, 2, 1};
    entry.best.instance.cores_per_depth = {{1, 3}, {2, 5}};
    entry.best.feasible = true;
    entry.best.infeasible_reason = "";
    entry.best.estimated_area_luts = 1.0 / 3.0;  // not exactly representable
    entry.best.actual_area_luts = -0.0;          // signed zero must survive
    entry.best.f_max_mhz = 212.0390625;
    entry.best.windows_per_frame = 123456789012LL;
    entry.best.throughput.cycles_per_window = 17.25;
    entry.best.throughput.core_bound_cycles = std::numeric_limits<double>::infinity();
    entry.best.throughput.onchip_bound_cycles = 5e-324;  // smallest denormal
    entry.best.throughput.offchip_bound_cycles = 0.1;
    entry.best.throughput.bottleneck = "core compute";
    entry.best.throughput.seconds_per_frame = 0.0042;
    entry.best.throughput.fps = 238.095238095238;
    entry.best.throughput.class_cycles = {{1, 2.5}, {2, 1.0 / 7.0}};
    entry.best.memory.input_buffer_kbits = 12.5;
    entry.best.memory.intermediate_kbits = 0.0;
    entry.best.memory.output_buffer_kbits = 99.0;
    entry.best.memory.total_kbits = 111.5;
    entry.best.memory.whole_frame_kbits = 4096.0;
    entry.best.memory.saving_factor = 36.735426008968610;
    entry.pareto_points = 421;
    entry.pareto_front_size = 17;
    entry.front_points.push_back(
        {"w=3 levels=[2 2 2 1] cores={1:3 2:5}", 12345.5, 0.0042, 238.095});
    entry.front_points.push_back({"w=5 levels=[7]", 1.0 / 3.0, -0.0, 3.0});
    entry.validated = true;
    entry.validation_max_abs_err = 0.0;
    entry.format_searched = true;
    entry.format_satisfiable = true;
    entry.fixed_format.integer_bits = 11;
    entry.fixed_format.frac_bits = 9;
    entry.format_exact = true;
    entry.format_psnr_db = 51.03125;
    entry.searched_area_luts = 54321.0;
    entry.searched_fps = 2.0 / 7.0;  // not exactly representable
    entry.searched_f_max_mhz = 187.59375;
    entry.validated_fixed = true;
    entry.validation_max_raw_err = 1.0;
    return entry;
}

Sweep_entry make_streaming_entry() {
    Sweep_entry entry;
    entry.kernel = "heat";
    entry.device = "xc6vlx760";
    entry.iterations = 8;
    entry.backend = "streaming";
    entry.fits = true;
    entry.streaming_best.config = {2, 4, 2, 1};
    entry.streaming_best.feasible = true;
    entry.streaming_best.area_luts = 123456.75;
    entry.streaming_best.datapath_luts = 100000.0;
    entry.streaming_best.line_buffer_luts = 1.0 / 7.0;
    entry.streaming_best.line_buffer_kbits = 36.5;
    entry.streaming_best.f_max_mhz = 212.0390625;
    entry.streaming_best.passes = 4;
    entry.streaming_best.compute_cycles = 98304.0;
    entry.streaming_best.memory_cycles = 24576.0;
    entry.streaming_best.cycles_per_pass = 98304.0;
    entry.streaming_best.bottleneck = "compute";
    entry.streaming_best.seconds_per_frame = 0.00196;
    entry.streaming_best.fps = 510.2040816326531;
    entry.pareto_points = 12;
    entry.pareto_front_size = 3;
    entry.front_points.push_back({"stream(d=2,v=4,pe=2,ch=1)", 123456.75,
                                  0.00196, 510.2040816326531});
    return entry;
}

Sweep_entry make_unfit_entry() {
    Sweep_entry entry;
    entry.kernel = "k";
    entry.device = "d";
    entry.iterations = 1;
    entry.fits = false;
    return entry;
}

Format_grid make_format_grid() {
    Format_grid grid;
    for (int w = 1; w <= 2; ++w) {
        for (int d = 1; d <= 2; ++d) {
            Format_cell cell;
            cell.window = w;
            cell.depth = d;
            cell.result.format.integer_bits = 8 + w;
            cell.result.format.frac_bits = 4 + d;
            cell.result.psnr_db = 50.0 + 1.0 / (w + d);
            cell.result.exact = (w == 2 && d == 1);
            cell.result.max_abs_value = 255.96875 * w;
            cell.result.range_integer_bits = 9 + w;
            cell.result.formats_tried = w * 10 + d;
            cell.result.satisfiable = (w + d) % 2 == 0;
            // Satisfiable cells carry the full evaluation of their canonical
            // design point; the unsatisfiable ones stay unevaluated.
            cell.evaluated = cell.result.satisfiable;
            if (cell.evaluated) {
                cell.area_luts = 1000.0 * w + 1.0 / d;
                cell.f_max_mhz = 180.0 + 0.125 * d;
                cell.fps = 30.0 * w / 7.0;
            }
            grid.cells.push_back(cell);
        }
    }
    return grid;
}

Synthesis_report make_synthesis_report() {
    Synthesis_report report;
    report.design_name = "igf cone w3 d2";
    report.lut_count = 1234.567;
    report.raw_lut_count = 1300.0;
    report.ff_count = 999.0;
    report.dsp_count = 12;
    report.bram_kbits = 36.125;
    report.f_max_mhz = 201.5;
    report.latency_cycles = 17;
    report.register_count = 421;
    report.synthesis_cpu_seconds = 3600.25;
    report.fits = true;
    return report;
}

TEST(Sweep_records, sweep_entry_round_trip_is_exact) {
    const Sweep_entry entry = make_full_entry();
    const std::string text = serialize_record(entry);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    // serialize(parse(s)) == s pins every field bit for bit (doubles travel
    // as their IEEE-754 bit patterns, so 1/3, -0.0, inf, denormals all
    // survive exactly).
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_EQ(parsed.kernel, entry.kernel);
    EXPECT_EQ(parsed.iterations, entry.iterations);
    EXPECT_EQ(parsed.best.instance.level_depths, entry.best.instance.level_depths);
    EXPECT_EQ(parsed.best.instance.cores_per_depth,
              entry.best.instance.cores_per_depth);
    EXPECT_EQ(parsed.best.estimated_area_luts, entry.best.estimated_area_luts);
    EXPECT_TRUE(std::signbit(parsed.best.actual_area_luts));
    EXPECT_EQ(parsed.best.throughput.core_bound_cycles,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(parsed.best.throughput.onchip_bound_cycles, 5e-324);
    EXPECT_EQ(parsed.best.throughput.class_cycles, entry.best.throughput.class_cycles);
    EXPECT_EQ(parsed.best.throughput.bottleneck, entry.best.throughput.bottleneck);
    EXPECT_EQ(parsed.pareto_points, entry.pareto_points);
    EXPECT_EQ(parsed.backend, "paper");
    ASSERT_EQ(parsed.front_points.size(), 2u);
    // Configs with internal spaces survive (they are the line's tail).
    EXPECT_EQ(parsed.front_points[0].config, entry.front_points[0].config);
    EXPECT_EQ(parsed.front_points[0].area_luts, entry.front_points[0].area_luts);
    EXPECT_TRUE(std::signbit(parsed.front_points[1].seconds_per_frame));
    EXPECT_EQ(parsed.fixed_format.integer_bits, 11);
    EXPECT_EQ(parsed.fixed_format.frac_bits, 9);
    EXPECT_TRUE(parsed.format_exact);
    EXPECT_EQ(parsed.searched_fps, entry.searched_fps);
    EXPECT_EQ(parsed.searched_f_max_mhz, entry.searched_f_max_mhz);
}

TEST(Sweep_records, streaming_entry_round_trip_is_exact) {
    const Sweep_entry entry = make_streaming_entry();
    const std::string text = serialize_record(entry);
    // A streaming entry carries the stream block, not the paper eval block.
    EXPECT_NE(text.find("stream."), std::string::npos);
    EXPECT_EQ(text.find("eval."), std::string::npos);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_EQ(parsed.backend, "streaming");
    EXPECT_EQ(parsed.streaming_best.config.vector_width, 4);
    EXPECT_EQ(parsed.streaming_best.config.channels, 1);
    EXPECT_EQ(parsed.streaming_best.line_buffer_luts, 1.0 / 7.0);
    EXPECT_EQ(parsed.streaming_best.bottleneck, "compute");
    ASSERT_EQ(parsed.front_points.size(), 1u);
    EXPECT_EQ(parsed.front_points[0].config, "stream(d=2,v=4,pe=2,ch=1)");
}

TEST(Sweep_records, nan_survives_the_round_trip) {
    Sweep_entry entry = make_full_entry();
    entry.best.f_max_mhz = std::numeric_limits<double>::quiet_NaN();
    const std::string text = serialize_record(entry);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_TRUE(std::isnan(parsed.best.f_max_mhz));
    EXPECT_EQ(serialize_record(parsed), text);
}

TEST(Sweep_records, unfit_entry_skips_the_evaluation_block) {
    const Sweep_entry entry = make_unfit_entry();
    const std::string text = serialize_record(entry);
    EXPECT_EQ(text.find("eval."), std::string::npos);
    Sweep_entry parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_FALSE(parsed.fits);
}

TEST(Sweep_records, format_grid_round_trip_is_exact) {
    const Format_grid grid = make_format_grid();
    const std::string text = serialize_record(grid);
    Format_grid parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    ASSERT_EQ(parsed.cells.size(), grid.cells.size());
    EXPECT_EQ(parsed.cells[3].result.psnr_db, grid.cells[3].result.psnr_db);
    EXPECT_EQ(parsed.cells[3].result.satisfiable, grid.cells[3].result.satisfiable);
    EXPECT_EQ(parsed.cells[2].result.exact, grid.cells[2].result.exact);
    EXPECT_EQ(parsed.cells[3].result.range_integer_bits,
              grid.cells[3].result.range_integer_bits);
    EXPECT_EQ(parsed.cells[3].evaluated, grid.cells[3].evaluated);
    EXPECT_EQ(parsed.cells[3].area_luts, grid.cells[3].area_luts);
    EXPECT_EQ(parsed.cells[3].f_max_mhz, grid.cells[3].f_max_mhz);
    EXPECT_EQ(parsed.cells[3].fps, grid.cells[3].fps);
}

TEST(Sweep_records, synthesis_report_round_trip_is_exact) {
    const Synthesis_report report = make_synthesis_report();
    const std::string text = serialize_record(report);
    Synthesis_report parsed;
    std::string error;
    ASSERT_TRUE(parse_record(text, &parsed, &error)) << error;
    EXPECT_EQ(serialize_record(parsed), text);
    EXPECT_EQ(parsed.design_name, report.design_name);
    EXPECT_EQ(parsed.lut_count, report.lut_count);
    EXPECT_EQ(parsed.dsp_count, report.dsp_count);
}

TEST(Sweep_records, strict_parsers_reject_mutations) {
    const std::string text = serialize_record(make_full_entry());
    Sweep_entry parsed;
    std::string error;
    // Truncated: drop the trailing "end\n".
    EXPECT_FALSE(parse_record(text.substr(0, text.size() - 4), &parsed, &error));
    // Trailing garbage after "end".
    EXPECT_FALSE(parse_record(text + "extra\n", &parsed, &error));
    // Renamed field.
    std::string renamed = text;
    renamed.replace(renamed.find("kernel "), 7, "kernle ");
    EXPECT_FALSE(parse_record(renamed, &parsed, &error));
    EXPECT_NE(error.find("expected"), std::string::npos);
    // Wrong version token (a stale v2-era record must degrade to a miss).
    std::string reversioned = text;
    ASSERT_NE(reversioned.find("v3"), std::string::npos);
    reversioned.replace(reversioned.find("v3"), 2, "v2");
    EXPECT_FALSE(parse_record(reversioned, &parsed, &error));
    // Malformed double (hex digits replaced).
    std::string bad_double = text;
    const auto pos = bad_double.find("validation_max_abs_err ");
    bad_double.replace(pos + 23, 4, "zzzz");
    EXPECT_FALSE(parse_record(bad_double, &parsed, &error));
    // Wrong record type entirely.
    Format_grid grid;
    EXPECT_FALSE(parse_record(text, &grid, &error));
    // Integers are canonical decimal within the field's range: anything that
    // would not re-serialize to the same bytes is rejected, never narrowed.
    const auto with_line = [](std::string record, const std::string& from,
                              const std::string& to) {
        const auto at = record.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return record.replace(at, from.size(), to);
    };
    for (const char* iterations :
         {"+7", " 7", "07", "-0", "7 ", "4294967299", "4294967303", "-99999999999",
          "9223372036854775808", ""}) {
        EXPECT_FALSE(parse_record(
            with_line(text, "\niterations 7\n", cat("\niterations ", iterations, "\n")),
            &parsed, &error))
            << "iterations '" << iterations << "'";
    }
    EXPECT_FALSE(parse_record(with_line(text, "\npareto_points 421\n",
                                        "\npareto_points -1\n"),
                              &parsed, &error));
    EXPECT_FALSE(parse_record(with_line(text, "\neval.depths 2 2 2 1\n",
                                        "\neval.depths 2 +2 2 1\n"),
                              &parsed, &error));
    EXPECT_FALSE(parse_record(with_line(text, "\neval.cores 1:3 2:5\n",
                                        "\neval.cores 1:3 2:4294967301\n"),
                              &parsed, &error));
    for (const char* cores : {"1:3 2:5 ", "1:3  2:5", "1:3 1:5", "2:5 1:3", "1:3 2"}) {
        EXPECT_FALSE(parse_record(
            with_line(text, "\neval.cores 1:3 2:5\n", cat("\neval.cores ", cores, "\n")),
            &parsed, &error))
            << "eval.cores '" << cores << "'";
    }
    // The extreme in-range values still round-trip.
    const std::string extreme =
        with_line(text, "\niterations 7\n", "\niterations -2147483648\n");
    EXPECT_TRUE(parse_record(extreme, &parsed, &error)) << error;
    EXPECT_EQ(parsed.iterations, std::numeric_limits<int>::min());
    EXPECT_EQ(serialize_record(parsed), extreme);

    const std::string report_text = serialize_record(make_synthesis_report());
    Synthesis_report report;
    for (const char* dsp : {"-99999999999", "4294967308", "+12", " 12", "0x0c"}) {
        EXPECT_FALSE(parse_record(
            with_line(report_text, "\ndsp_count 12\n", cat("\ndsp_count ", dsp, "\n")),
            &report, &error))
            << "dsp_count '" << dsp << "'";
    }
    // Stray spaces and words the writer never emits.
    EXPECT_FALSE(parse_record(with_line(report_text, "\ndesign igf cone w3 d2\n",
                                        "\ndesign \n"),
                              &report, &error));
    EXPECT_FALSE(parse_record(with_line(report_text, "\nend\n", "\nend extra\n"),
                              &report, &error));
    EXPECT_FALSE(parse_record(with_line(text, "\nformat 11 9\n", "\nformat 11 9 \n"),
                              &parsed, &error));
}

TEST(Sweep_records, double_bits_codec_is_exact_and_strict) {
    for (double v : {0.0, -0.0, 1.0 / 3.0, 5e-324,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::max()}) {
        double decoded = 1.0;
        ASSERT_TRUE(decode_double_bits(encode_double_bits(v), &decoded));
        EXPECT_EQ(encode_double_bits(decoded), encode_double_bits(v));
    }
    double out;
    EXPECT_FALSE(decode_double_bits("", &out));
    EXPECT_FALSE(decode_double_bits("123", &out));                  // short
    EXPECT_FALSE(decode_double_bits("00000000000000000", &out));    // long
    EXPECT_FALSE(decode_double_bits("000000000000000G", &out));     // bad digit
    EXPECT_FALSE(decode_double_bits("3FF000000000000A", &out));     // upper case
}

// --- golden bytes -----------------------------------------------------------------
// The record and key texts are the on-disk contract: a cache written by one
// build must be served by the next. Round trips alone cannot see a field
// renamed on both the writing and the reading side, so the exact bytes of
// every fixture are pinned here as literals.

const char* const kFullEntryRecord = R"(sweep-entry v3
kernel igf
device xc6vlx760
iterations 7
backend paper
fits 1
eval.window 3
eval.depths 2 2 2 1
eval.cores 1:3 2:5
eval.feasible 1
eval.reason
eval.estimated_area_luts 3fd5555555555555
eval.actual_area_luts 8000000000000000
eval.f_max_mhz 406a814000000000
eval.windows_per_frame 123456789012
eval.tp.cycles_per_window 4031400000000000
eval.tp.core_bound 7ff0000000000000
eval.tp.onchip_bound 0000000000000001
eval.tp.offchip_bound 3fb999999999999a
eval.tp.bottleneck core compute
eval.tp.seconds_per_frame 3f713404ea4a8c15
eval.tp.fps 406dc30c30c30c2d
eval.tp.class_cycles 1:4004000000000000 2:3fc2492492492492
eval.mem.input 4029000000000000
eval.mem.intermediate 0000000000000000
eval.mem.output 4058c00000000000
eval.mem.total 405be00000000000
eval.mem.whole_frame 40b0000000000000
eval.mem.saving 40425e22708092f1
pareto_points 421
pareto_front 17
front_points 2
fp 40c81cc000000000 3f713404ea4a8c15 406dc30a3d70a3d7 w=3 levels=[2 2 2 1] cores={1:3 2:5}
fp 3fd5555555555555 8000000000000000 4008000000000000 w=5 levels=[7]
validated 1
validation_max_abs_err 0000000000000000
format_searched 1
format_satisfiable 1
format_exact 1
format 11 9
format_psnr_db 4049840000000000
searched_area_luts 40ea862000000000
searched_fps 3fd2492492492492
searched_f_max_mhz 4067730000000000
validated_fixed 1
validation_max_raw_err 3ff0000000000000
end
)";

const char* const kStreamingEntryRecord = R"(sweep-entry v3
kernel heat
device xc6vlx760
iterations 8
backend streaming
fits 1
stream.config 2 4 2 1
stream.feasible 1
stream.reason
stream.area_luts 40fe240c00000000
stream.datapath_luts 40f86a0000000000
stream.line_buffer_luts 3fc2492492492492
stream.line_buffer_kbits 4042400000000000
stream.f_max_mhz 406a814000000000
stream.passes 4
stream.compute_cycles 40f8000000000000
stream.memory_cycles 40d8000000000000
stream.cycles_per_pass 40f8000000000000
stream.bottleneck compute
stream.seconds_per_frame 3f600e6afcce1c58
stream.fps 407fe343eb1a1f59
pareto_points 12
pareto_front 3
front_points 1
fp 40fe240c00000000 3f600e6afcce1c58 407fe343eb1a1f59 stream(d=2,v=4,pe=2,ch=1)
validated 0
validation_max_abs_err 0000000000000000
format_searched 0
format_satisfiable 0
format_exact 0
format 10 6
format_psnr_db 0000000000000000
searched_area_luts 0000000000000000
searched_fps 0000000000000000
searched_f_max_mhz 0000000000000000
validated_fixed 0
validation_max_raw_err 0000000000000000
end
)";

const char* const kUnfitEntryRecord = R"(sweep-entry v3
kernel k
device d
iterations 1
backend paper
fits 0
pareto_points 0
pareto_front 0
front_points 0
validated 0
validation_max_abs_err 0000000000000000
format_searched 0
format_satisfiable 0
format_exact 0
format 10 6
format_psnr_db 0000000000000000
searched_area_luts 0000000000000000
searched_fps 0000000000000000
searched_f_max_mhz 0000000000000000
validated_fixed 0
validation_max_raw_err 0000000000000000
end
)";

const char* const kFormatGridRecord = R"(format-grid v3
backend paper
cells 4
cell 1 1 9 5 4049400000000000 0 406fff0000000000 10 11 1 1 408f480000000000 4066840000000000 4011249249249249
cell 1 2 9 6 40492aaaaaaaaaab 0 406fff0000000000 10 12 0 0 0000000000000000 0000000000000000 0000000000000000
cell 2 1 10 5 40492aaaaaaaaaab 1 407fff0000000000 11 21 0 0 0000000000000000 0000000000000000 0000000000000000
cell 2 2 10 6 4049200000000000 0 407fff0000000000 11 22 1 1 409f420000000000 4066880000000000 4021249249249249
end
)";

const char* const kSynthesisReportRecord = R"(synthesis-report v1
design igf cone w3 d2
lut_count 40934a449ba5e354
raw_lut_count 4094500000000000
ff_count 408f380000000000
dsp_count 12
bram_kbits 4042100000000000
f_max_mhz 4069300000000000
latency_cycles 17
register_count 421
synthesis_cpu_seconds 40ac208000000000
fits 1
end
)";

const char* const kEntryKey = R"(sweep-entry-key v3
kernel igf
boundary clamp
device xc6vlx760
iterations 2
backend paper
frame 64x48
format 10.6
space 3 2 16 4156e36000000000
throughput 4020000000000000 4040000000000000 3ff0000000000000 405e000000000000
calibration_windows 1 2
with_pareto 0
validate 1 48x36 seed 17
search_formats 1 4046800000000000 406fe00000000000 32 32 99 shrink 1
validate_fixed 0
)";

const char* const kFormatGridKey = R"(format-grid-key v3
kernel igf
boundary clamp
device xc6vlx760
space 3 2
content 48x36 seed 17
search 4046800000000000 406fe00000000000 32 32 99 shrink 1
frame 64x48
throughput 4020000000000000 4040000000000000 3ff0000000000000 405e000000000000
calibration_windows 1 2
)";

const char* const kRequestKey = R"(sweep-request v3
kernels igf
devices xc6vlx760
iterations 2
backends paper
frame 64x48
format 10.6
space 3 2 16 4156e36000000000
throughput 4020000000000000 4040000000000000 3ff0000000000000 405e000000000000
calibration_windows 1 2
with_pareto 0
validate 1 48x36 seed 17
search_formats 1 4046800000000000 406fe00000000000 32 32 99 shrink 1
validate_fixed 0
)";

const char* const kSynthesisKeyPrefix = R"(synthesis-key v1
kernel igf
boundary clamp
)";

TEST(Sweep_records, records_and_keys_match_golden_bytes) {
    EXPECT_EQ(serialize_record(make_full_entry()), kFullEntryRecord);
    EXPECT_EQ(serialize_record(make_streaming_entry()), kStreamingEntryRecord);
    EXPECT_EQ(serialize_record(make_unfit_entry()), kUnfitEntryRecord);
    EXPECT_EQ(serialize_record(make_format_grid()), kFormatGridRecord);
    EXPECT_EQ(serialize_record(make_synthesis_report()), kSynthesisReportRecord);

    const Sweep_config config = small_config();
    const std::string ir = "kernel igf\nboundary clamp\n";
    EXPECT_EQ(sweep_entry_key(ir, config, "xc6vlx760", 2, "paper"), kEntryKey);
    EXPECT_EQ(format_grid_key(ir, config, "xc6vlx760"), kFormatGridKey);
    EXPECT_EQ(sweep_request_key(config), kRequestKey);
    EXPECT_EQ(synthesis_key_prefix(ir), kSynthesisKeyPrefix);

    // Empty tails: a line whose only value is an empty text or list is the
    // bare field name; an empty config still follows the fp row's doubles
    // after one space.
    Sweep_entry sparse = make_full_entry();
    sparse.best.instance.level_depths.clear();
    sparse.best.instance.cores_per_depth.clear();
    sparse.best.throughput.bottleneck.clear();
    sparse.best.throughput.class_cycles.clear();
    sparse.front_points = {{"", 1.0, 2.0, 3.0}};
    const std::string text = serialize_record(sparse);
    EXPECT_NE(text.find("\neval.depths\neval.cores\n"), std::string::npos);
    EXPECT_NE(text.find("\neval.tp.bottleneck\n"), std::string::npos);
    EXPECT_NE(text.find("\neval.tp.class_cycles\n"), std::string::npos);
    EXPECT_NE(text.find("\nfp 3ff0000000000000 4000000000000000 4008000000000000 \n"),
              std::string::npos);
    Synthesis_report unnamed = make_synthesis_report();
    unnamed.design_name.clear();
    EXPECT_EQ(serialize_record(unnamed).substr(0, 27), "synthesis-report v1\ndesign\n");
}

// --- cache keys -------------------------------------------------------------------

TEST(Sweep_records, keys_track_results_not_thread_counts) {
    const Sweep_config base = small_config();
    const std::string ir = "kernel igf\n";
    const std::string key = sweep_entry_key(ir, base, "xc6vlx760", 2, "paper");
    // Result-affecting knobs change the key...
    Sweep_config changed = base;
    changed.format.frac_bits += 1;
    EXPECT_NE(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    changed = base;
    changed.frame_width = 128;
    EXPECT_NE(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    changed = base;
    changed.validate = false;
    EXPECT_NE(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    EXPECT_NE(sweep_entry_key(ir, base, "xc7vx485t", 2, "paper"), key);
    EXPECT_NE(sweep_entry_key(ir, base, "xc6vlx760", 3, "paper"), key);
    // ...as does the backend: paper and streaming entries never alias.
    EXPECT_NE(sweep_entry_key(ir, base, "xc6vlx760", 2, "streaming"), key);
    // The backend *list* lives in the request key, not the entry key: a
    // multi-backend request re-serves the single-backend run's paper entries.
    changed = base;
    changed.backends = {"paper", "streaming"};
    EXPECT_EQ(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    EXPECT_NE(sweep_request_key(changed), sweep_request_key(base));
    // ...thread counts do not (results are thread-invariant by contract).
    changed = base;
    changed.space.threads = 16;
    changed.format_search.threads = 8;
    EXPECT_EQ(sweep_entry_key(ir, changed, "xc6vlx760", 2, "paper"), key);
    EXPECT_EQ(sweep_request_key(changed), sweep_request_key(base));
    EXPECT_EQ(format_grid_key(ir, changed, "xc6vlx760"),
              format_grid_key(ir, base, "xc6vlx760"));
    // The grid's per-cell evaluations are priced on a device, so grids from
    // different devices never alias; neither do shrink-on and shrink-off
    // searches.
    EXPECT_NE(format_grid_key(ir, base, "xc7vx485t"),
              format_grid_key(ir, base, "xc6vlx760"));
    changed = base;
    changed.format_search.shrink_integer_bits = false;
    EXPECT_NE(format_grid_key(ir, changed, "xc6vlx760"),
              format_grid_key(ir, base, "xc6vlx760"));
}

// --- the service ------------------------------------------------------------------

TEST(Sweep_service, warm_cache_is_byte_identical_and_runs_nothing) {
    const std::string dir = fresh_dir("warm");
    const Sweep_config config = small_config();

    // Reference: a plain uncached service.
    const Sweep_report reference = Sweep_service{}.run(config);

    Service_options options;
    options.cache_dir = dir;
    std::string cold_table;
    {
        Sweep_service service(options);
        const Sweep_report cold = service.run(config);
        cold_table = report_table(cold);
        EXPECT_EQ(cold_table, report_table(reference));
        EXPECT_EQ(cold.entry_hits, 0);
        EXPECT_EQ(cold.entry_misses, 1);
        EXPECT_EQ(cold.entry_stores, 1);
        EXPECT_EQ(cold.grid_misses, 1);
        EXPECT_GT(cold.synthesis_runs, 0);
    }
    // A fresh service over the same directory (a new process, effectively).
    Sweep_service warm_service(options);
    const Sweep_report warm = warm_service.run(config);
    EXPECT_EQ(report_table(warm), cold_table);
    EXPECT_EQ(warm.entry_hits, static_cast<int>(warm.entries.size()));
    EXPECT_EQ(warm.entry_misses, 0);
    // The hit counters prove nothing was recomputed.
    EXPECT_EQ(warm.cone_builds, 0);
    EXPECT_EQ(warm.synthesis_runs, 0);
    EXPECT_EQ(warm.synthesis_loads, 0);  // entry hits short-circuit synthesis
    EXPECT_EQ(warm.synthesis_cpu_seconds, 0.0);
    fs::remove_all(dir);
}

TEST(Sweep_service, mixed_backend_cache_never_crosses_backends) {
    const std::string dir = fresh_dir("mixed");
    Sweep_config paper_only = small_config();
    paper_only.validate = false;
    paper_only.search_formats = false;
    paper_only.with_pareto = true;

    Service_options options;
    options.cache_dir = dir;
    {
        // A cold paper-only run seeds the cache.
        Sweep_service service(options);
        const Sweep_report cold = service.run(paper_only);
        EXPECT_EQ(cold.entry_hits, 0);
        EXPECT_EQ(cold.entry_stores, 1);
    }
    Sweep_config both = paper_only;
    both.backends = {"paper", "streaming"};
    std::string mixed_table;
    {
        // The multi-backend request re-serves the paper entry from the warm
        // cache but must compute the streaming one: the backend name is part
        // of the entry key, so a paper record can never answer a streaming
        // lookup.
        Sweep_service service(options);
        const Sweep_report mixed = service.run(both);
        ASSERT_EQ(mixed.entries.size(), 2u);
        EXPECT_EQ(mixed.entry_hits, 1);
        EXPECT_EQ(mixed.entry_misses, 1);
        EXPECT_EQ(mixed.entry_stores, 1);
        EXPECT_EQ(mixed.entries[0].backend, "paper");
        EXPECT_EQ(mixed.entries[1].backend, "streaming");
        ASSERT_EQ(mixed.merged_fronts.size(), 1u);
        EXPECT_GE(mixed.merged_fronts[0].points.size(), 1u);
        mixed_table = report_table(mixed);
    }
    // A fully warm mixed run serves both entries and rebuilds the merged
    // front from the cached front_points with zero recomputation.
    Sweep_service warm_service(options);
    const Sweep_report warm = warm_service.run(both);
    EXPECT_EQ(warm.entry_hits, 2);
    EXPECT_EQ(warm.entry_misses, 0);
    EXPECT_EQ(warm.cone_builds, 0);
    EXPECT_EQ(warm.synthesis_runs, 0);
    ASSERT_EQ(warm.merged_fronts.size(), 1u);
    EXPECT_EQ(report_table(warm), mixed_table);
    fs::remove_all(dir);
}

TEST(Sweep_service, same_service_memoizes_repeat_requests) {
    Sweep_service service;  // no persistent cache: in-memory only
    const Sweep_config config = small_config();
    const Sweep_report first = service.run(config);
    const Sweep_report second = service.run(config);
    EXPECT_EQ(report_table(first), report_table(second));
    // The resident libraries served the repeat: no new cones or syntheses.
    EXPECT_EQ(second.cone_builds, 0);
    EXPECT_EQ(second.synthesis_runs, 0);
}

TEST(Sweep_service, batch_dedups_and_isolates_failures) {
    Sweep_service service;
    std::vector<Sweep_config> requests;
    requests.push_back(small_config());
    requests.push_back(small_config());  // identical: must dedup
    Sweep_config bad = small_config();
    bad.kernels = {"no_such_kernel"};
    requests.push_back(bad);
    Sweep_config invalid = small_config();
    invalid.iteration_counts = {0};
    requests.push_back(invalid);

    const std::vector<Request_outcome> outcomes = service.run_requests(requests);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].deduplicated);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_TRUE(outcomes[1].deduplicated);
    EXPECT_EQ(report_table(outcomes[0].report), report_table(outcomes[1].report));
    EXPECT_FALSE(outcomes[2].ok);
    EXPECT_EQ(outcomes[2].kind, Error_kind::user);
    EXPECT_NE(outcomes[2].message.find("no_such_kernel"), std::string::npos);
    EXPECT_FALSE(outcomes[3].ok);
    EXPECT_EQ(outcomes[3].kind, Error_kind::user);
    EXPECT_NE(outcomes[3].message.find(">= 1"), std::string::npos);
}

TEST(Sweep_service, run_validates_the_config_first) {
    Sweep_config config;  // empty: no kernels
    EXPECT_THROW(Sweep_service{}.run(config), Error);
    try {
        Sweep_service{}.run(config);
        FAIL();
    } catch (const Islhls_error& e) {
        EXPECT_EQ(e.kind(), Error_kind::user);
    }
}

}  // namespace
}  // namespace islhls
