#include "core/sweep_records.hpp"

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "ir/print.hpp"
#include "support/text.hpp"

namespace islhls {

std::string encode_double_bits(double value) {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
    return out;
}

bool decode_double_bits(const std::string& text, double* value) {
    if (text.size() != 16) return false;
    std::uint64_t bits = 0;
    for (char c : text) {
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else return false;
        bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    *value = std::bit_cast<double>(bits);
    return true;
}

namespace {

// --- the line grammar ---------------------------------------------------------------
// A record is a `schema version` line, then `name value...` lines in the
// order its field list states, then `end`. Each value on a line follows one
// space and is encoded by its type:
//   integer          canonical decimal (optional '-', no leading zeros, no
//                    "-0"), within the field type's range;
//   double           the 16-hex-digit IEEE-754 bit pattern;
//   bool             0 / 1;
//   std::string      the rest of the line (spaces allowed, so always last);
//   std::vector      one value per element, the rest of the line;
//   std::map         one key:value per element, the rest of the line.
// An empty vector or map, like an empty note(), leaves the bare name. The
// reader accepts exactly what the writer emits; any deviation (wrong name,
// malformed value, stray space, trailing garbage) fails the whole parse and
// the caller recomputes.

template <class T>
concept Integer = std::integral<T> && !std::same_as<T, bool>;

class Record_writer {
public:
    void schema(const char* name, const char* version) {
        os_ << name << ' ' << version << '\n';
    }

    template <class... Values>
    void field(const char* name, const Values&... values) {
        os_ << name;
        (put(values), ...);
        os_ << '\n';
    }

    // Free text that may be empty: the bare name then.
    void note(const char* name, const std::string& text) {
        os_ << name;
        if (!text.empty()) os_ << ' ' << text;
        os_ << '\n';
    }

    template <class T>
    void sequence(std::vector<T>&, std::size_t) {}

    std::string finish() {
        os_ << "end\n";
        return os_.str();
    }

private:
    template <Integer T>
    static std::string encode(T v) { return std::to_string(v); }
    static std::string encode(bool v) { return v ? "1" : "0"; }
    static std::string encode(double v) { return encode_double_bits(v); }

    template <class T>
    void put(const T& v) { os_ << ' ' << encode(v); }
    void put(const std::string& v) { os_ << ' ' << v; }
    template <class T>
    void put(const std::vector<T>& items) {
        for (const T& item : items) put(item);
    }
    template <class K, class V>
    void put(const std::map<K, V>& items) {
        for (const auto& [key, value] : items) {
            os_ << ' ' << encode(key) << ':' << encode(value);
        }
    }

    std::ostringstream os_;
};

class Record_reader {
public:
    explicit Record_reader(const std::string& text) {
        for (const std::string& line : split(text, '\n')) lines_.push_back(line);
        // A well-formed record ends with "end\n", so split leaves one empty
        // trailing element; drop it.
        if (!lines_.empty() && lines_.back().empty()) lines_.pop_back();
    }

    void schema(const char* name, const char* version) {
        std::string_view rest;
        if (expect(name, &rest) && (!skip_space(rest) || rest != version)) {
            fail_value(cat(name, " version"));
        }
    }

    template <class... Values>
    void field(const char* name, Values&... values) {
        std::string_view rest;
        if (!expect(name, &rest)) return;
        if (!(take(rest, values) && ...) || !rest.empty()) fail_value(name);
    }

    void note(const char* name, std::string& text) {
        std::string_view rest;
        if (!expect(name, &rest)) return;
        text.clear();
        if (!rest.empty() && (!take(rest, text) || text.empty())) fail_value(name);
    }

    // Sizes `items` for the `count` rows that follow; a count beyond the
    // remaining lines is corrupt, so it fails before allocating anything.
    template <class T>
    void sequence(std::vector<T>& items, std::size_t count) {
        if (!failed_ && count > lines_.size() - next_) fail_value("count");
        items.resize(failed_ ? 0 : count);
    }

    bool finish(std::string* error) {
        std::string_view rest;
        if (expect("end", &rest) && !rest.empty()) fail_value("end");
        if (!failed_ && next_ != lines_.size()) fail("<end>", lines_[next_]);
        if (failed_) *error = error_;
        return !failed_;
    }

private:
    // Consumes the next line, requiring its first token to be `name`;
    // `*rest` receives everything after the name, separating space included.
    bool expect(std::string_view name, std::string_view* rest) {
        if (failed_) return false;
        if (next_ >= lines_.size()) return fail(name, "<end>");
        const std::string_view line = lines_[next_];
        if (!line.starts_with(name) ||
            (line.size() > name.size() && line[name.size()] != ' ')) {
            return fail(name, line);
        }
        ++next_;
        *rest = line.substr(name.size());
        return true;
    }

    bool fail(std::string_view wanted, std::string_view got) {
        if (!failed_) {
            failed_ = true;
            error_ = cat("line ", next_ + 1, ": expected '", wanted, "', got '", got,
                         "'");
        }
        return false;
    }

    void fail_value(const std::string& what) {
        if (!failed_) {
            failed_ = true;
            error_ = cat("line ", next_, ": bad ", what, " value");
        }
    }

    static bool skip_space(std::string_view& rest) {
        if (!rest.starts_with(' ')) return false;
        rest.remove_prefix(1);
        return true;
    }
    static std::string_view token(std::string_view& rest) {
        const std::string_view out = rest.substr(0, rest.find(' '));
        rest.remove_prefix(out.size());
        return out;
    }

    // Scalar decoders over one whole token.
    template <Integer T>
    static bool decode(std::string_view text, T& value) {
        // Only the writer's own spelling, so serialize(parse(s)) == s holds.
        const std::string_view digits = text.starts_with('-') ? text.substr(1) : text;
        if (digits.empty() || (digits[0] == '0' && text.size() > 1)) return false;
        // from_chars takes no '+' and no whitespace, and reports values
        // outside T's range instead of narrowing them.
        const char* end = text.data() + text.size();
        const auto [stop, ec] = std::from_chars(text.data(), end, value);
        return ec == std::errc{} && stop == end;
    }
    static bool decode(std::string_view text, bool& value) {
        value = text == "1";
        return text == "0" || text == "1";
    }
    static bool decode(std::string_view text, double& value) {
        return decode_double_bits(std::string(text), &value);
    }

    // Value readers, mirroring Record_writer::put: each consumes one space
    // and its encoding from the front of `rest`.
    template <class T>
    static bool take(std::string_view& rest, T& value) {
        return skip_space(rest) && decode(token(rest), value);
    }
    static bool take(std::string_view& rest, std::string& value) {
        if (!skip_space(rest)) return false;
        value = rest;
        rest = {};
        return true;
    }
    template <class T>
    static bool take(std::string_view& rest, std::vector<T>& items) {
        items.clear();
        while (!rest.empty()) {
            if (!take(rest, items.emplace_back())) return false;
        }
        return true;
    }
    template <class K, class V>
    static bool take(std::string_view& rest, std::map<K, V>& items) {
        items.clear();
        while (!rest.empty()) {
            if (!skip_space(rest)) return false;
            const std::string_view item = token(rest);
            const auto colon = item.find(':');
            K key{};
            V value{};
            if (colon == std::string_view::npos || !decode(item.substr(0, colon), key) ||
                !decode(item.substr(colon + 1), value)) {
                return false;
            }
            // Strictly ascending keys, as the writer emits them.
            if (!items.empty() && key <= items.rbegin()->first) return false;
            items.emplace(key, value);
        }
        return true;
    }

    std::vector<std::string> lines_;
    std::size_t next_ = 0;
    bool failed_ = false;
    std::string error_;
};

// --- field lists ----------------------------------------------------------------------
// One per record type, run by both the writer and the reader: each field's
// name, position and encoding are stated here and nowhere else.

template <class Io>
void fields(Io& io, Arch_evaluation& e) {
    io.field("eval.window", e.instance.window);
    io.field("eval.depths", e.instance.level_depths);
    io.field("eval.cores", e.instance.cores_per_depth);
    io.field("eval.feasible", e.feasible);
    io.note("eval.reason", e.infeasible_reason);
    io.field("eval.estimated_area_luts", e.estimated_area_luts);
    io.field("eval.actual_area_luts", e.actual_area_luts);
    io.field("eval.f_max_mhz", e.f_max_mhz);
    io.field("eval.windows_per_frame", e.windows_per_frame);
    io.field("eval.tp.cycles_per_window", e.throughput.cycles_per_window);
    io.field("eval.tp.core_bound", e.throughput.core_bound_cycles);
    io.field("eval.tp.onchip_bound", e.throughput.onchip_bound_cycles);
    io.field("eval.tp.offchip_bound", e.throughput.offchip_bound_cycles);
    io.note("eval.tp.bottleneck", e.throughput.bottleneck);
    io.field("eval.tp.seconds_per_frame", e.throughput.seconds_per_frame);
    io.field("eval.tp.fps", e.throughput.fps);
    io.field("eval.tp.class_cycles", e.throughput.class_cycles);
    io.field("eval.mem.input", e.memory.input_buffer_kbits);
    io.field("eval.mem.intermediate", e.memory.intermediate_kbits);
    io.field("eval.mem.output", e.memory.output_buffer_kbits);
    io.field("eval.mem.total", e.memory.total_kbits);
    io.field("eval.mem.whole_frame", e.memory.whole_frame_kbits);
    io.field("eval.mem.saving", e.memory.saving_factor);
}

template <class Io>
void fields(Io& io, Streaming_evaluation& e) {
    io.field("stream.config", e.config.depth, e.config.vector_width, e.config.pe_count,
             e.config.channels);
    io.field("stream.feasible", e.feasible);
    io.note("stream.reason", e.infeasible_reason);
    io.field("stream.area_luts", e.area_luts);
    io.field("stream.datapath_luts", e.datapath_luts);
    io.field("stream.line_buffer_luts", e.line_buffer_luts);
    io.field("stream.line_buffer_kbits", e.line_buffer_kbits);
    io.field("stream.f_max_mhz", e.f_max_mhz);
    io.field("stream.passes", e.passes);
    io.field("stream.compute_cycles", e.compute_cycles);
    io.field("stream.memory_cycles", e.memory_cycles);
    io.field("stream.cycles_per_pass", e.cycles_per_pass);
    io.note("stream.bottleneck", e.bottleneck);
    io.field("stream.seconds_per_frame", e.seconds_per_frame);
    io.field("stream.fps", e.fps);
}

template <class Io>
void fields(Io& io, Sweep_entry& e) {
    io.schema("sweep-entry", "v3");
    io.field("kernel", e.kernel);
    io.field("device", e.device);
    io.field("iterations", e.iterations);
    io.field("backend", e.backend);
    io.field("fits", e.fits);
    if (e.fits) {
        if (e.backend == "streaming") {
            fields(io, e.streaming_best);
        } else {
            fields(io, e.best);
        }
    }
    io.field("pareto_points", e.pareto_points);
    io.field("pareto_front", e.pareto_front_size);
    std::size_t front_count = e.front_points.size();
    io.field("front_points", front_count);
    io.sequence(e.front_points, front_count);
    for (Front_point& fp : e.front_points) {
        // Config last: it may contain spaces (architecture renderings do)
        // but never newlines, so everything after the third value is it.
        io.field("fp", fp.area_luts, fp.seconds_per_frame, fp.fps, fp.config);
    }
    io.field("validated", e.validated);
    io.field("validation_max_abs_err", e.validation_max_abs_err);
    io.field("format_searched", e.format_searched);
    io.field("format_satisfiable", e.format_satisfiable);
    io.field("format_exact", e.format_exact);
    io.field("format", e.fixed_format.integer_bits, e.fixed_format.frac_bits);
    io.field("format_psnr_db", e.format_psnr_db);
    io.field("searched_area_luts", e.searched_area_luts);
    io.field("searched_fps", e.searched_fps);
    io.field("searched_f_max_mhz", e.searched_f_max_mhz);
    io.field("validated_fixed", e.validated_fixed);
    io.field("validation_max_raw_err", e.validation_max_raw_err);
}

template <class Io>
void fields(Io& io, Format_grid& grid) {
    io.schema("format-grid", "v3");
    io.field("backend", grid.backend);
    std::size_t count = grid.cells.size();
    io.field("cells", count);
    io.sequence(grid.cells, count);
    for (Format_cell& cell : grid.cells) {
        // Fourteen fixed values per cell: the search result (with explicit
        // exactness and the pre-shrink range floor) plus the per-format full
        // evaluation of the cell's canonical design point (zeros when the
        // cell was not evaluated).
        Format_search_result& r = cell.result;
        io.field("cell", cell.window, cell.depth, r.format.integer_bits,
                 r.format.frac_bits, r.psnr_db, r.exact, r.max_abs_value,
                 r.range_integer_bits, r.formats_tried, r.satisfiable, cell.evaluated,
                 cell.area_luts, cell.f_max_mhz, cell.fps);
    }
}

template <class Io>
void fields(Io& io, Synthesis_report& r) {
    io.schema("synthesis-report", "v1");
    io.note("design", r.design_name);
    io.field("lut_count", r.lut_count);
    io.field("raw_lut_count", r.raw_lut_count);
    io.field("ff_count", r.ff_count);
    io.field("dsp_count", r.dsp_count);
    io.field("bram_kbits", r.bram_kbits);
    io.field("f_max_mhz", r.f_max_mhz);
    io.field("latency_cycles", r.latency_cycles);
    io.field("register_count", r.register_count);
    io.field("synthesis_cpu_seconds", r.synthesis_cpu_seconds);
    io.field("fits", r.fits);
}

template <class Record>
std::string write_record(const Record& record) {
    Record_writer writer;
    // The field lists take mutable references so the reader can fill them;
    // the writer only reads through them.
    fields(writer, const_cast<Record&>(record));
    return writer.finish();
}

template <class Record>
bool read_record(const std::string& text, Record* record, std::string* error) {
    Record_reader reader(text);
    Record out;
    fields(reader, out);
    if (!reader.finish(error)) return false;
    *record = std::move(out);
    return true;
}

}  // namespace

std::string serialize_record(const Sweep_entry& entry) { return write_record(entry); }
bool parse_record(const std::string& text, Sweep_entry* entry, std::string* error) {
    return read_record(text, entry, error);
}

std::string serialize_record(const Format_grid& grid) { return write_record(grid); }
bool parse_record(const std::string& text, Format_grid* grid, std::string* error) {
    return read_record(text, grid, error);
}

std::string serialize_record(const Synthesis_report& report) {
    return write_record(report);
}
bool parse_record(const std::string& text, Synthesis_report* report,
                  std::string* error) {
    return read_record(text, report, error);
}

// --- cache keys -------------------------------------------------------------------

std::string kernel_ir_key(const std::string& kernel_name, Boundary boundary,
                          const Stencil_step& step) {
    std::ostringstream os;
    os << "kernel " << kernel_name << "\n";
    os << "boundary " << to_string(boundary) << "\n";
    for (const std::string& name : step.const_fields()) {
        os << "const " << name << "\n";
    }
    const std::vector<std::string>& fields = step.state_fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
        os << "state " << fields[i] << " = "
           << to_sexpr(step.pool(), step.update(static_cast<int>(i))) << "\n";
    }
    return os.str();
}

namespace {

// `name item item ...\n`
template <class T>
std::string list_line(const char* name, const std::vector<T>& items) {
    std::string line = name;
    for (const T& item : items) line += cat(" ", item);
    return line + "\n";
}

// Key lines shared by the entry/request keys and the format-grid key.
std::string frame_line(const Sweep_config& config) {
    return cat("frame ", config.frame_width, "x", config.frame_height, "\n");
}

std::string throughput_line(const Throughput_params& t) {
    return cat("throughput ", encode_double_bits(t.core_read_ports), " ",
               encode_double_bits(t.global_read_ports), " ",
               encode_double_bits(t.offchip_write_cost), " ",
               encode_double_bits(t.class_switch_cycles), "\n");
}

// The validation content: frame size and scene seed.
std::string validation_content(const Sweep_config& config) {
    return cat(config.validation_frame_width, "x", config.validation_frame_height,
               " seed ", config.validation_seed);
}

// Every result-affecting format-search option (the thread count is not).
std::string search_options(const Format_search_options& s) {
    return cat(encode_double_bits(s.target_psnr_db), " ",
               encode_double_bits(s.peak_value), " ", s.sample_windows, " ",
               s.max_total_bits, " ", s.seed, " shrink ",
               s.shrink_integer_bits ? 1 : 0);
}

// Every option that can change a sweep result, shared by the entry and
// request keys. Thread counts are deliberately absent: results are
// byte-identical at any fan-out width, so a warm cache serves requests
// regardless of how parallel the original run was.
std::string config_key_options(const Sweep_config& config) {
    std::ostringstream os;
    os << frame_line(config);
    os << "format " << config.format.integer_bits << "." << config.format.frac_bits
       << "\n";
    os << "space " << config.space.max_window << " " << config.space.max_depth
       << " " << config.space.max_cores_per_sweep << " "
       << encode_double_bits(config.space.pareto_area_cap_luts) << "\n";
    os << throughput_line(config.throughput);
    os << list_line("calibration_windows", config.calibration_windows);
    os << "with_pareto " << (config.with_pareto ? 1 : 0) << "\n";
    os << "validate " << (config.validate ? 1 : 0) << " "
       << validation_content(config) << "\n";
    os << "search_formats " << (config.search_formats ? 1 : 0) << " "
       << search_options(config.format_search) << "\n";
    os << "validate_fixed " << (config.validate_fixed ? 1 : 0) << "\n";
    return os.str();
}

}  // namespace

std::string sweep_entry_key(const std::string& ir_key, const Sweep_config& config,
                            const std::string& device, int iterations,
                            const std::string& backend) {
    return cat("sweep-entry-key v3\n", ir_key, "device ", device, "\niterations ",
               iterations, "\nbackend ", backend, "\n",
               config_key_options(config));
}

std::string format_grid_key(const std::string& ir_key, const Sweep_config& config,
                            const std::string& device) {
    // v3: the grid's cells carry full per-format evaluations, which are
    // priced on a device against the modeled frame, throughput parameters
    // and calibration windows — all of it keyed, so a cached grid is never
    // served to a request that would have priced its cells differently.
    std::ostringstream os;
    os << "format-grid-key v3\n" << ir_key;
    os << "device " << device << "\n";
    os << "space " << config.space.max_window << " " << config.space.max_depth
       << "\n";
    os << "content " << validation_content(config) << "\n";
    os << "search " << search_options(config.format_search) << "\n";
    os << frame_line(config);
    os << throughput_line(config.throughput);
    os << list_line("calibration_windows", config.calibration_windows);
    return os.str();
}

std::string synthesis_key_prefix(const std::string& ir_key) {
    return cat("synthesis-key v1\n", ir_key);
}

std::string sweep_request_key(const Sweep_config& config) {
    return cat("sweep-request v3\n", list_line("kernels", config.kernels),
               list_line("devices", config.devices),
               list_line("iterations", config.iteration_counts),
               list_line("backends", config.backends), config_key_options(config));
}

}  // namespace islhls
