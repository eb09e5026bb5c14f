// Tests of the benchmark's own helpers: the percentile rule, the FNV
// reference digest, the /proc parsers and the span self-time fold.
//
//   cmake --build <build dir> --target perfbench_helpers_test
//   ctest --test-dir <build dir>
#include <cstdio>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "reference.hpp"
#include "tracer.hpp"
#include "workflow/traditional.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::vector<double> iota(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
}

void percentile_rule() {
    // Nearest rank: the smallest sample with at least pct% of samples at or
    // below it.
    const auto v = iota(100);
    EXPECT(near(perfbench::percentile(v, 50), 50));
    EXPECT(near(perfbench::percentile(v, 99), 99));
    EXPECT(near(perfbench::percentile(v, 100), 100));
    EXPECT(near(perfbench::percentile(iota(3), 50), 2));
    EXPECT(near(perfbench::percentile({}, 50), 0));

    // The reported tail is the highest ladder percentile with >= 10 samples
    // above its rank.
    EXPECT(near(perfbench::top_percentile(19), 0));
    EXPECT(near(perfbench::top_percentile(20), 50));
    EXPECT(near(perfbench::top_percentile(99), 50));
    EXPECT(near(perfbench::top_percentile(100), 90));
    EXPECT(near(perfbench::top_percentile(999), 90));
    EXPECT(near(perfbench::top_percentile(1000), 99));
    EXPECT(near(perfbench::top_percentile(10000), 99.9));
    EXPECT(near(perfbench::top_percentile(100000), 99.99));

    auto shuffled = iota(1000);
    std::reverse(shuffled.begin(), shuffled.end());
    const auto s = perfbench::summarize(shuffled);
    EXPECT(s.n == 1000);
    EXPECT(near(s.p50, 500));
    EXPECT(near(s.top_pct, 99));
    EXPECT(near(s.top, 990));

    EXPECT(near(perfbench::median({3, 1, 2}), 2));
    EXPECT(near(perfbench::median({4, 1, 2, 3}), 2.5));
}

void fnv_reference() {
    // FNV-1a 64 of no bytes is the offset basis; one zero ID hashes 8 zero
    // bytes.
    EXPECT(perfbench::fnv1a64({}) == 1469598103934665603ull);
    std::uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < 8; ++i) h = (h ^ 0) * 1099511628211ull;
    EXPECT(perfbench::fnv1a64({0}) == h);
    EXPECT(perfbench::fnv1a64({1, 2}) != perfbench::fnv1a64({2, 1}));

    // The reference equals the paper's file-based workflow on the same data,
    // and depends on the seed.
    hep::nova::DatasetConfig cfg;
    cfg.num_files = 6;
    cfg.events_per_file = 200;
    cfg.seed = 7;
    const hep::nova::Generator gen(cfg);
    const auto ref = perfbench::reference_selection(gen);
    hep::workflow::TraditionalOptions opts;
    opts.num_workers = 2;
    auto trad = hep::workflow::run_traditional_generated(gen, opts);
    std::sort(trad.accepted_ids.begin(), trad.accepted_ids.end());
    EXPECT(ref.accepted > 0);
    EXPECT(ref.accepted == trad.accepted_ids.size());
    EXPECT(ref.fnv == perfbench::fnv1a64(trad.accepted_ids));
    EXPECT(ref.slices == trad.slices_processed);
    EXPECT(ref.events == gen.total_events());
    cfg.seed = 8;
    EXPECT(perfbench::reference_selection(hep::nova::Generator(cfg)).fnv != ref.fnv);
}

void proc_parsers() {
    const std::string stat =
        "cpu  100 5 50 800 10 1 4 30 0 0\n"
        "cpu0 50 2 25 400 5 0 2 15 0 0\n"
        "intr 12345\n";
    const auto a = perfbench::parse_proc_stat(stat);
    EXPECT(a.ok);
    EXPECT(a.total == 1000);
    EXPECT(a.steal == 30);
    const auto b = perfbench::parse_proc_stat("cpu  150 5 70 1000 10 1 4 80 0 0\n");
    EXPECT(near(perfbench::steal_share(a, b), 50.0 / 320.0));
    // Old kernels without a steal column, and garbage.
    const auto c = perfbench::parse_proc_stat("cpu  1 2 3 4\n");
    EXPECT(c.ok && c.total == 10 && c.steal == 0);
    EXPECT(!perfbench::parse_proc_stat("intr 1 2 3\n").ok);
    EXPECT(!perfbench::parse_proc_stat("cpu  1 x\n").ok);
    EXPECT(near(perfbench::steal_share(b, a), 0));

    const std::string io =
        "rchar: 4000\nwchar: 2500\nsyscr: 9\nsyscw: 3\nread_bytes: 4096\n"
        "write_bytes: 8192\ncancelled_write_bytes: 0\n";
    const auto x = perfbench::parse_proc_io(io);
    EXPECT(x.ok);
    EXPECT(x.rchar == 4000 && x.wchar == 2500 && x.read_bytes == 4096 && x.write_bytes == 8192);
    const auto y = perfbench::parse_proc_io(
        "rchar: 5000\nwchar: 3000\nread_bytes: 4096\nwrite_bytes: 9192\n");
    const auto d = y - x;
    EXPECT(d.ok && d.rchar == 1000 && d.wchar == 500 && d.write_bytes == 1000);
    EXPECT(!perfbench::parse_proc_io("rchar: 1\n").ok);

    EXPECT(perfbench::parse_status_hwm_kib("Name:\tx\nVmPeak:\t 900 kB\nVmHWM:\t  4096 kB\n"
                                           "VmRSS:\t 2048 kB\n") == 4096);
    EXPECT(perfbench::parse_status_hwm_kib("Name:\tx\n") == 0);

    // The live files parse on this kernel, and the peak-RSS mark restarts
    // at the current resident set.
    EXPECT(perfbench::host_cpu_times().ok);
    EXPECT(perfbench::process_io().ok);
    {
        std::vector<char> block(64 << 20, 1);
        const double peak = perfbench::peak_rss_mib();
        EXPECT(peak >= 64);
        block = {};
        block.shrink_to_fit();
        EXPECT(perfbench::reset_peak_rss());
        EXPECT(perfbench::peak_rss_mib() < peak - 32);
    }
}

void span_self_time() {
    using perfbench::Span;
    // root [0,100): two concurrent children [10,50) and [30,70) cover 60;
    // a grandchild [20,40) of the first child; a child clipped to the root.
    std::vector<Span> spans = {
        {1, 0, "client.pass", 0, 100},
        {2, 1, "hepnos.rank", 10, 50},
        {3, 1, "hepnos.rank", 30, 70},
        {4, 2, "serial.decode", 20, 40},
        {5, 1, "nova.cuts", 90, 120},
    };
    const auto folded = perfbench::Tracer::fold_spans(spans);
    EXPECT(folded.at("client.pass").durations_us.size() == 1);
    EXPECT(near(folded.at("client.pass").self_us * 1e3, 100 - 60 - 10));
    EXPECT(near(folded.at("hepnos.rank").self_us * 1e3, (40 - 20) + 40));
    EXPECT(near(folded.at("serial.decode").self_us * 1e3, 20));
    EXPECT(near(folded.at("nova.cuts").self_us * 1e3, 30));

    perfbench::Tracer off(false);
    { perfbench::Tracer::Scope s(off, "client.pass", 0); }
    EXPECT(off.fold().empty());
    perfbench::Tracer on(true);
    {
        perfbench::Tracer::Scope parent(on, "client.pass", 0);
        perfbench::Tracer::Scope child(on, "serial.decode", parent.id());
    }
    const auto live = on.fold();
    EXPECT(live.size() == 2);
    EXPECT(live.at("client.pass").self_us <= live.at("client.pass").durations_us[0]);
}

}  // namespace

int main() {
    percentile_rule();
    fnv_reference();
    proc_parsers();
    span_self_time();
    if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
