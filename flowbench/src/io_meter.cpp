#include "io_meter.hpp"

#include <chrono>
#include <utility>

#include "trace.hpp"

namespace flowbench {

namespace {

// Runs `call` inside a span named `name`, adding its duration to `ns`.
template <typename Call>
auto timed(const char* name, std::atomic<long long>& ns, Call&& call) {
    Scoped_span span(name);
    const auto start = std::chrono::steady_clock::now();
    auto result = call();
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
    return result;
}

}  // namespace

islhls::Env_hooks metered_hooks(Io_meter& meter) {
    const islhls::Env_hooks& real = islhls::real_env_hooks();
    islhls::Env_hooks hooks = real;
    Io_meter* m = &meter;
    hooks.write_file = [&real, m](const std::string& path, const std::string& data,
                                  std::string* error) {
        m->bytes_written += static_cast<long long>(data.size());
        return timed("cache.write", m->write_ns,
                     [&] { return real.write_file(path, data, error); });
    };
    hooks.create_exclusive = [&real, m](const std::string& path,
                                        const std::string& data, std::string* error) {
        return timed("cache.write", m->write_ns,
                     [&] { return real.create_exclusive(path, data, error); });
    };
    hooks.rename_file = [&real, m](const std::string& from, const std::string& to,
                                   std::string* error) {
        return timed("cache.write", m->write_ns,
                     [&] { return real.rename_file(from, to, error); });
    };
    hooks.remove_file = [&real, m](const std::string& path) {
        return timed("cache.write", m->write_ns,
                     [&] { return real.remove_file(path); });
    };
    hooks.read_file = [&real, m](const std::string& path, std::string* out,
                                 std::string* error) {
        return timed("cache.read", m->read_ns,
                     [&] { return real.read_file(path, out, error); });
    };
    return hooks;
}

}  // namespace flowbench
