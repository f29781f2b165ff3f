#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "support/cache_info.hpp"

namespace flowbench {

Host_info probe_host() {
    Host_info info;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                info.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
            }
            break;
        }
    }
    if (info.cpu_model.empty()) info.cpu_model = "unknown";
    info.cores = static_cast<int>(std::thread::hardware_concurrency());
    const islhls::Cache_topology& topo = islhls::cache_topology();
    const double mib = 1024.0 * 1024.0;
    info.llc_probed = topo.probed;
    info.llc_mib = static_cast<double>(topo.llc_bytes) / mib;
    info.llc_raw_mib =
        static_cast<double>(topo.raw_llc_bytes ? topo.raw_llc_bytes : topo.llc_bytes) /
        mib;
    return info;
}

double copy_gbps(double* dst, const double* src, std::size_t count, int reps) {
    const std::size_t bytes = count * sizeof(double);
    std::memcpy(dst, src, bytes);  // warm-up: faults pages in
    std::vector<double> rates;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        std::memcpy(dst, src, bytes);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        rates.push_back(2.0 * static_cast<double>(bytes) / s * 1e-9);
    }
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

double copy_gbps(std::size_t bytes, int reps) {
    const std::size_t count = bytes / sizeof(double);
    std::vector<double> src(count, 1.0);
    std::vector<double> dst(count, 0.0);
    return copy_gbps(dst.data(), src.data(), count, reps);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 * 1e-6;
}

}  // namespace flowbench
