#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

namespace flowbench {

Trace* g_trace = nullptr;

namespace {

std::atomic<int> next_thread_index{0};

int thread_index() {
    thread_local const int index = next_thread_index.fetch_add(1);
    return index;
}

// Open spans of the calling thread, innermost last.
std::vector<int>& open_stack() {
    thread_local std::vector<int> stack;
    return stack;
}

std::string json_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

double Trace::now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int Trace::begin(std::string name, std::string detail) {
    std::vector<int>& stack = open_stack();
    Span span;
    span.name = std::move(name);
    span.detail = std::move(detail);
    span.thread = thread_index();
    span.parent = stack.empty() ? -1 : stack.back();
    span.start_us = now_us();
    int id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(spans_.size());
        spans_.push_back(std::move(span));
    }
    stack.push_back(id);
    return id;
}

void Trace::end(int id) {
    std::vector<int>& stack = open_stack();
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    if (stack.empty() || stack.back() != id) {
        misnested_ += 1;  // left open; excluded from every table
        return;
    }
    stack.pop_back();
    spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::map<std::string, Trace::Layer_time> Trace::layer_times() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0 && s.end_us >= s.start_us) {
            child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
        }
    }
    std::map<std::string, Layer_time> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end_us < s.start_us) continue;
        Layer_time& t = out[s.name];
        const double dur = s.end_us - s.start_us;
        t.total_s += dur * 1e-6;
        t.self_s += (dur - child_us[i]) * 1e-6;
        t.count += 1;
    }
    return out;
}

double Trace::covered_s(const std::string& root) const {
    double covered = 0.0;
    for (const auto& [name, t] : layer_times()) {
        if (name != root) covered += t.self_s;
    }
    return covered;
}

long long Trace::misnested() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misnested_;
}

std::string Trace::chrome_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out.precision(3);
    out << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
        if (s.end_us < s.start_us) continue;
        out << (first ? "\n" : ",\n") << "{\"name\":\"" << json_escape(s.name)
            << "\",\"cat\":\"flow\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
            << ",\"args\":{\"detail\":\"" << json_escape(s.detail) << "\"}}";
        first = false;
    }
    out << "\n]}\n";
    return out.str();
}

std::string Trace::self_time_table(double wall_s) const {
    const std::map<std::string, Layer_time> times = layer_times();
    std::vector<std::pair<std::string, Layer_time>> rows(times.begin(), times.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_s > b.second.self_s;
    });
    std::ostringstream out;
    char line[160];
    std::snprintf(line, sizeof line, "%-18s %10s %12s %12s %8s\n", "layer", "spans",
                  "total_s", "self_s", "self_%");
    out << line;
    for (const auto& [name, t] : rows) {
        std::snprintf(line, sizeof line, "%-18s %10lld %12.6f %12.6f %7.2f%%\n",
                      name.c_str(), t.count, t.total_s, t.self_s,
                      wall_s > 0.0 ? 100.0 * t.self_s / wall_s : 0.0);
        out << line;
    }
    std::snprintf(line, sizeof line, "%-18s %10s %12.6f\n", "traced wall", "", wall_s);
    out << line;
    return out.str();
}

Scoped_span::Scoped_span(const char* name, std::string detail) {
    if (g_trace != nullptr) id_ = g_trace->begin(name, std::move(detail));
}

Scoped_span::~Scoped_span() {
    if (g_trace != nullptr && id_ >= 0) g_trace->end(id_);
}

}  // namespace flowbench
