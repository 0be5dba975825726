/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload <bulk-wide|small-streams|serve-mix>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--git-sha <sha>] [--out-dir <dir>]
 *
 * --trace 0 sets the workload up several times (setup_s is the
 * median), runs it for --seconds with tracing off, checks every output
 * it reads and prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced windows over the same --seconds, reports the
 * tracing overhead, runs the layer probes and the layer ledger, prints
 * the per-layer metrics and writes the spans to <out-dir>.
 *
 * The last line of standard output is one JSON object:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * The exit code is non-zero when any output differs from its host
 * reference.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench
{
namespace
{

constexpr int kRounds = 10;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string gitSha = "unknown";
    std::string outDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<bulk-wide|small-streams|serve-mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--git-sha <sha>] "
                 "[--out-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--git-sha")
            a.gitSha = v;
        else if (k == "--out-dir")
            a.outDir = v;
        else
            usage("unknown argument " + k);
    }
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Aggregate CPU time counters from /proc/stat (jiffies). */
struct CpuTimes
{
    double total = 0;
    double steal = 0;
};

CpuTimes
readCpuTimes()
{
    CpuTimes t;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    if (cpu != "cpu")
        return t;
    for (int i = 0; i < 10; ++i) {
        double v = 0;
        if (!(f >> v))
            break;
        // Fields: user nice system idle iowait irq softirq steal
        // guest guest_nice; guest time is already inside user.
        if (i < 8)
            t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const Report &rep)
{
    std::string s = "{";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

/** @return The CPU steal share between two /proc/stat readings. */
double
stealShare(const CpuTimes &a, const CpuTimes &b)
{
    return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total)
                             : 0.0;
}

/** Per-round figures of an untraced run. */
struct Rounds
{
    std::vector<double> setupS, opsPerS, p50Us, p99Us, steal;
    uint64_t attempted = 0, ok = 0;

    void
    add(const Window &win, double stealFrac)
    {
        const uint64_t good = win.attempted - win.failed;
        opsPerS.push_back(
            win.seconds > 0 ? static_cast<double>(good) / win.seconds : 0);
        p50Us.push_back(quantile(win.latUs.v, 0.50));
        p99Us.push_back(quantile(win.latUs.v, 0.99));
        steal.push_back(stealFrac);
        attempted += win.attempted;
        ok += good;
    }

    /**
     * @return @p v restricted to the half of the rounds with the least
     *         CPU steal. On a shared virtual machine the hypervisor
     *         can take whole milliseconds from a vCPU; those rounds
     *         measure the neighbours, not the simulator.
     */
    std::vector<double>
    quiet(const std::vector<double> &v) const
    {
        std::vector<size_t> idx(v.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return steal[a] < steal[b];
        });
        std::vector<double> out;
        for (size_t i = 0; i < (idx.size() + 1) / 2; ++i)
            out.push_back(v[idx[i]]);
        return out;
    }
};

/** Adds the end-to-end metrics of an untraced run. */
void
addEndToEnd(Report &rep, const Rounds &r, const ModeledUnit &unit,
            double rssMb)
{
    const simdram::DramStats all = unit.compute + unit.transfer;
    rep.add("setup_s", median(r.quiet(r.setupS)), "s");
    rep.add("ops_per_s", median(r.quiet(r.opsPerS)), "1/s");
    rep.add("lat_p50_us", median(r.quiet(r.p50Us)), "us");
    rep.add("lat_p99_us", median(r.quiet(r.p99Us)), "us");
    rep.add("ok_frac",
            r.attempted ? static_cast<double>(r.ok) /
                              static_cast<double>(r.attempted)
                        : 0.0,
            "frac");
    rep.add("modeled_gops",
            all.latencyNs > 0 ? unit.elementOps / all.latencyNs : 0,
            "Gop/s");
    rep.add("modeled_gops_per_w",
            all.energyPj > 0 ? unit.elementOps * 1e3 / all.energyPj : 0,
            "Gop/J");
    rep.add("peak_rss_mb", rssMb, "MB");
}

int
runMain(const Args &args)
{
    std::unique_ptr<Workload> w;
    if (args.workload == "bulk-wide")
        w = makeBulkWide(args.seed);
    else if (args.workload == "small-streams")
        w = makeSmallStreams(args.seed);
    else if (args.workload == "serve-mix")
        w = makeServeMix(args.seed);
    else
        usage("unknown workload '" + args.workload + "'");

    Report rep;
    ModeledUnit unit;
    Window total;
    const CpuTimes cpu0 = readCpuTimes();
    Tracer tracer;
    std::vector<double> roundSteal;

    if (!args.trace) {
        // Several rounds, each on a freshly built stack: setup_s and
        // the host figures are medians over the quieter half of the
        // rounds, so a disturbed round (or an unlucky thread
        // placement) does not move the result.
        Rounds rounds;
        double rss = 0;
        for (int k = 0; k < kRounds; ++k) {
            const int64_t t0 = nowNs();
            w->setup();
            rounds.setupS.push_back(static_cast<double>(nowNs() - t0) /
                                    1e9);
            const CpuTimes before = readCpuTimes();
            const Window win = w->run(args.seconds / kRounds, nullptr);
            const double steal = stealShare(before, readCpuTimes());
            rss = peakRssMb();
            unit = {};
            w->finish(rep, unit);
            w->teardown();
            rounds.add(win, steal);
            total.attempted += win.attempted;
            total.failed += win.failed;
            total.latUs.seen += win.latUs.seen;
        }
        addEndToEnd(rep, rounds, unit, rss);
        roundSteal = rounds.steal;
    } else {
        // Alternate untraced and traced windows so drift on the host
        // lands on both sides of the overhead ratio.
        w->setup();
        double rate[2] = {0, 0}, secs[2] = {0, 0};
        for (int k = 0; k < 4; ++k) {
            const bool traced = k % 2 == 1;
            Window win = w->run(args.seconds / 4, traced ? &tracer : nullptr);
            secs[traced] += win.seconds;
            rate[traced] += static_cast<double>(win.attempted - win.failed);
            total.attempted += win.attempted;
            total.failed += win.failed;
            total.lateSumUs += win.lateSumUs;
            total.lateCount += win.lateCount;
            total.latUs.seen += win.latUs.seen;
        }
        w->finish(rep, unit);

        addUnitLayerMetrics(rep, unit);
        addRuntimeLayerMetrics(rep, w->counters());
        ServeFigures fig;
        const bool serving = w->serveFigures(fig);
        rep.add("runtime.submit_us",
                median(tracer.durationsUs(serving ? "tenant.submit"
                                                  : "runtime.submit")),
                "us");
        rep.add("runtime.wait_us", median(tracer.durationsUs("runtime.wait")),
                "us");
        w->probeLayers(rep);
        if (serving) {
            rep.add("layout.write_us",
                    median(tracer.durationsUs("layout.write")), "us");
            rep.add("layout.read_us",
                    median(tracer.durationsUs("layout.read")), "us");
        }

        // Workloads that do not route through the tenant and serving
        // layers report those layers' figures from the ledger's d4
        // tenant view and coalescer.
        ServeFigures ledgerFig;
        runLedger(rep, ledgerFig);
        if (serving)
            fig.tenantUs = tracer.durationsUs("tenant.stream");
        else
            fig = std::move(ledgerFig);
        addServeLayerMetrics(rep, fig);
        rep.add("serve.gen_late_us",
                total.lateCount ? total.lateSumUs /
                                      static_cast<double>(total.lateCount)
                                : 0.0,
                "us");
        const double untraced = secs[0] > 0 ? rate[0] / secs[0] : 0;
        const double traced = secs[1] > 0 ? rate[1] / secs[1] : 0;
        rep.add("trace.overhead_frac",
                traced > 0 ? untraced / traced - 1.0 : 0.0, "frac");
        paperContext(rep);

        const std::string path = args.outDir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
        if (tracer.writeChromeTrace(path))
            rep.notes.push_back("spans: " + std::to_string(tracer.recorded()) +
                                " recorded, written to " + path);
    }
    const CpuTimes cpu1 = readCpuTimes();
    const double steal = stealShare(cpu0, cpu1);
    std::string stealList;
    for (double s : roundSteal)
        stealList += (stealList.empty() ? "" : ", ") + num(s);

    rep.attempted = total.attempted;
    rep.failed = total.failed;
    if (rep.attempted == 0)
        rep.mismatch("no operation was attempted");

    // Context first, then the stamp, then the one result line.
    for (const std::string &n : rep.notes)
        std::printf("# %s\n", n.c_str());
    std::ostringstream meta;
    meta << "{\"workload\": \"" << args.workload
         << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << num(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"lat_samples\": " << total.latUs.seen
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu_model\": \"" << jsonEscape(cpuModel())
         << "\", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER)
         << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
         << "\", \"git_sha\": \"" << jsonEscape(args.gitSha)
         << "\", \"cpu_steal_frac\": " << num(steal)
         << ", \"round_steal_frac\": [" << stealList << "]}";
    std::printf("# meta %s\n", meta.str().c_str());

    const std::string result =
        std::string("{\"correct\": ") + (rep.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(rep.attempted) +
        ", \"failed\": " + std::to_string(rep.failed) +
        ", \"metrics\": " + metricsJson(rep) + "}";
    std::ofstream(args.outDir + "/result-" + args.workload + "-seed" +
                  std::to_string(args.seed) + "-trace" +
                  (args.trace ? "1" : "0") + ".json")
        << "{\"meta\": " << meta.str() << ", \"result\": " << result
        << "}\n";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::runMain(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
