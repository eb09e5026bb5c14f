// Measurement helpers of the repository benchmark: the percentile rule, the
// FNV-1a digest of accepted slice IDs, and parsers for the /proc files the
// benchmark samples around each timed phase. Header-only so the helper test
// links nothing of the system under test.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// FNV-1a over the 8 little-endian bytes of each ID, in the given order.
/// Callers pass the sorted accepted-ID set, so equal sets digest equally.
inline std::uint64_t fnv1a64(const std::vector<std::uint64_t>& ids) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t id : ids) {
        for (int b = 0; b < 8; ++b) {
            h ^= (id >> (8 * b)) & 0xFF;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/// Nearest-rank percentile of ascending `sorted` (pct in (0, 100]).
inline double percentile(const std::vector<double>& sorted, double pct) {
    if (sorted.empty()) return 0.0;
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/// The percentile ladder a timing is reported on.
inline constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// The highest ladder percentile that still has at least 10 samples above
/// its nearest-rank sample; 0 when even the median has fewer (n < 20).
inline double top_percentile(std::size_t n) {
    double best = 0.0;
    for (double pct : kLadder) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
        if (n >= rank + 10) best = pct;
    }
    return best;
}

/// A timing as the benchmark reports it: sample count, median, and the
/// highest percentile with at least ten samples beyond it.
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double top_pct = 0.0;  // 0: too few samples for any tail percentile
    double top = 0.0;
};

inline Summary summarize(std::vector<double> samples) {
    Summary s;
    s.n = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentile(samples, 50.0);
    s.top_pct = top_percentile(s.n);
    s.top = s.top_pct > 0 ? percentile(samples, s.top_pct) : 0.0;
    return s;
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Aggregate jiffies of the first "cpu " line of /proc/stat.
struct CpuTimes {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    bool ok = false;
};

inline CpuTimes parse_proc_stat(const std::string& text) {
    CpuTimes t;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cpu ", 0) != 0) continue;
        std::istringstream fields(line.substr(4));
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already inside user/nice, so it is not added again.
        std::uint64_t v[8] = {};
        int got = 0;
        while (got < 8 && fields >> v[got]) ++got;
        if (got < 4) return t;
        for (int i = 0; i < got; ++i) t.total += v[i];
        t.steal = got == 8 ? v[7] : 0;
        t.ok = true;
        return t;
    }
    return t;
}

/// Share of all CPU time the hypervisor stole between two samples.
inline double steal_share(const CpuTimes& before, const CpuTimes& after) {
    if (!before.ok || !after.ok || after.total <= before.total) return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

/// The byte counters of /proc/self/io.
struct IoCounters {
    std::uint64_t rchar = 0;
    std::uint64_t wchar = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    bool ok = false;
};

inline IoCounters parse_proc_io(const std::string& text) {
    IoCounters io;
    std::istringstream in(text);
    std::string key;
    std::uint64_t value = 0;
    int seen = 0;
    while (in >> key >> value) {
        if (key == "rchar:") io.rchar = value, ++seen;
        else if (key == "wchar:") io.wchar = value, ++seen;
        else if (key == "read_bytes:") io.read_bytes = value, ++seen;
        else if (key == "write_bytes:") io.write_bytes = value, ++seen;
    }
    io.ok = seen == 4;
    return io;
}

inline IoCounters operator-(const IoCounters& a, const IoCounters& b) {
    return {a.rchar - b.rchar, a.wchar - b.wchar, a.read_bytes - b.read_bytes,
            a.write_bytes - b.write_bytes, a.ok && b.ok};
}

inline std::string read_text(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

inline CpuTimes host_cpu_times() { return parse_proc_stat(read_text("/proc/stat")); }
inline IoCounters process_io() { return parse_proc_io(read_text("/proc/self/io")); }

/// User + system CPU seconds of this process, all threads.
inline double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Minor page faults of this process so far: pages first touched since start.
inline std::uint64_t process_minor_faults() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// The VmHWM (peak resident set) of a /proc/<pid>/status text, in KiB; 0
/// when the line is missing.
inline std::uint64_t parse_status_hwm_kib(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0) continue;
        std::istringstream fields(line.substr(6));
        std::uint64_t kib = 0;
        return fields >> kib ? kib : 0;
    }
    return 0;
}

/// Peak resident set of this process since start or the last reset_peak_rss.
inline double peak_rss_mib() {
    return static_cast<double>(parse_status_hwm_kib(read_text("/proc/self/status"))) / 1024.0;
}

/// Restart the peak-RSS mark at the current resident set; false where the
/// kernel does not allow it (then the peak counts from process start).
inline bool reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

}  // namespace perfbench
