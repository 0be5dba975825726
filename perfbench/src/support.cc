#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>

#include "bench.h"

namespace perfbench
{

using namespace simdram;

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

void
Tracer::record(uint32_t id, uint32_t parent, const char *name,
               uint64_t op, int64_t startNs, int64_t endNs)
{
    const uint32_t thread = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffff);
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back({id, parent, name, op, startNs, endNs, thread});
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) /
                          1e3);
    return out;
}

size_t
Tracer::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size() + dropped_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path);
    if (!f)
        return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    const size_t n = std::min(spans_.size(), kMaxWritten);
    f << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        char buf[320];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
            "\"parent\":%u,\"op\":%llu}}%s\n",
            s.name, s.thread,
            static_cast<double>(s.startNs - origin) / 1e3,
            static_cast<double>(s.endNs - s.startNs) / 1e3, s.id,
            s.parent, static_cast<unsigned long long>(s.op),
            i + 1 < n ? "," : "");
        f << buf;
    }
    f << "],\"unwrittenSpans\":" << spans_.size() - n + dropped_
      << "}\n";
    return static_cast<bool>(f);
}

void
Samples::add(double x)
{
    if (v.size() < kMax) {
        v.push_back(x);
    } else {
        // Algorithm R with a splitmix64 stream keyed on the count.
        uint64_t z = seen + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        const uint64_t j = z % (seen + 1);
        if (j < kMax)
            v[j] = x;
    }
    ++seen;
}

void
Report::mismatch(const std::string &what)
{
    correct = false;
    notes.push_back("MISMATCH: " + what);
}

void
RuntimeCounters::add(const StreamResult &r)
{
    streams += 1;
    instructions += static_cast<double>(r.instructions);
    cached += static_cast<double>(r.cachedInstructions);
    optimized += static_cast<double>(r.optimizedInstructions);
    queueDepthSum += static_cast<double>(r.queueDepthAtSubmit);
    backpressureNs += r.backpressureWaitNs;
    e2eNs += r.e2eNs();
    retried += r.attempts > 1 ? 1 : 0;
    e2eUs.add(r.e2eNs() / 1e3);
}

void
RuntimeCounters::merge(const RuntimeCounters &o)
{
    streams += o.streams;
    instructions += o.instructions;
    cached += o.cached;
    optimized += o.optimized;
    queueDepthSum += o.queueDepthSum;
    backpressureNs += o.backpressureNs;
    e2eNs += o.e2eNs;
    retried += o.retried;
    for (double us : o.e2eUs.v)
        e2eUs.add(us);
}

StreamExecutorOptions
lintedOptions()
{
    StreamExecutorOptions opts;
    opts.lintMode = LintMode::Warn;
    return opts;
}

void
addUnitLayerMetrics(Report &rep, const ModeledUnit &u)
{
    const double ops = u.bbopOps > 0 ? u.bbopOps : 1.0;
    const DramStats all = u.compute + u.transfer;
    rep.add("uprog.cmds_per_op",
            static_cast<double>(u.compute.aaps + u.compute.aps) / ops,
            "count");
    rep.add("dram.tra_per_op",
            static_cast<double>(all.multiActivates) / ops, "count");
    rep.add("dram.rw_bursts_per_op",
            static_cast<double>(all.reads + all.writes) / ops,
            "count");
    rep.add("layout.trsp_modeled_us",
            u.transfer.latencyNs / 1e3 / u.endOps, "sim-us");
}

void
addRuntimeLayerMetrics(Report &rep, const RuntimeCounters &c)
{
    const double instr = c.instructions > 0 ? c.instructions : 1.0;
    const double streams = c.streams > 0 ? c.streams : 1.0;
    rep.add("runtime.cache_hit_frac", c.cached / instr, "frac");
    rep.add("stream.optimized_frac", c.optimized / instr, "frac");
    rep.add("runtime.queue_depth", c.queueDepthSum / streams, "count");
    rep.add("runtime.backpressure_frac",
            c.e2eNs > 0 ? c.backpressureNs / c.e2eNs : 0.0, "frac");
    rep.add("runtime.retry_frac", c.retried / streams, "frac");
    rep.add("runtime.e2e_p50_us", median(c.e2eUs.v), "us");
}

void
addServeLayerMetrics(Report &rep, const ServeFigures &f)
{
    rep.add("tenant.stream_p50_us", median(f.tenantUs), "us");
    rep.add("tenant.shed", f.tenantShed, "count");
    rep.add("serve.submit_us", median(f.submitUs), "us");
    rep.add("serve.queue_us", median(f.queueUs), "us");
    rep.add("serve.execute_us", median(f.executeUs), "us");
    rep.add("serve.batch_fill", mean(f.batchFill), "frac");
}

} // namespace perfbench
