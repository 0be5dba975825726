/**
 * @file
 * Shared pieces of the perfbench program: the workload interface, the
 * in-memory span tracer, the metric report, and the layer probes that
 * the traced run applies to each workload's own programs.
 *
 * Two clocks appear in every report. Modeled numbers (simulated DRAM
 * time and energy, from DramStats) are deterministic and repeat
 * exactly run to run. Host numbers (the simulator's own speed) come
 * from std::chrono::steady_clock with tracing off; the traced run
 * measures per-layer spans separately and reports its own overhead.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "dram/config.h"
#include "isa/validate.h"
#include "runtime/stream_executor.h"
#include "stream/stream_ir.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** @return Host nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** @return The exact median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * @return The exact @p q quantile of @p v by linear interpolation
 *         between order statistics (0 when empty).
 */
double quantile(std::vector<double> v, double q);

/** @return The arithmetic mean of @p v (0 when empty). */
double mean(const std::vector<double> &v);

/** One timed interval recorded around a call into a layer. */
struct Span
{
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0 = root.
    const char *name = "";
    uint64_t op = 0;     ///< Operation (stream / request / batch) id.
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t thread = 0;
};

/**
 * In-memory span store. Spans are appended under a mutex (the
 * workloads record from the submitter and from dispatcher threads)
 * and written as a Chrome trace-event file when the run ends. The
 * store is bounded so a long run cannot grow without limit; spans
 * past the bound are counted, not kept.
 */
class Tracer
{
  public:
    static constexpr size_t kMaxSpans = 1u << 20;
    /** Spans written to the trace file (the first ones recorded). */
    static constexpr size_t kMaxWritten = 100000;

    /** @return A fresh span id (never 0). */
    uint32_t newId() { return next_.fetch_add(1) + 1; }

    /** Records a finished span. */
    void record(uint32_t id, uint32_t parent, const char *name,
                uint64_t op, int64_t startNs, int64_t endNs);

    /** Convenience: records a span with a fresh id; returns it. */
    uint32_t add(const char *name, uint64_t op, int64_t startNs,
                 int64_t endNs, uint32_t parent = 0)
    {
        const uint32_t id = newId();
        record(id, parent, name, op, startNs, endNs);
        return id;
    }

    /** @return Durations (us) of every kept span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** @return Spans recorded (kept + dropped). */
    size_t recorded() const;

    /** Writes the first kMaxWritten spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<uint32_t> next_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    size_t dropped_ = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation reports. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Free-form context lines printed before the result line. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Marks the run incorrect and records why. */
    void mismatch(const std::string &what);
};

/**
 * Per-op samples: every value up to kMax, then a uniform reservoir
 * sample of all of them, so the benchmark's own memory does not grow
 * with the system's throughput.
 */
struct Samples
{
    static constexpr size_t kMax = 100000;

    std::vector<double> v;
    uint64_t seen = 0;

    void add(double x);
};

/** The outcome of one timed window. */
struct Window
{
    double seconds = 0.0;  ///< Host seconds the window measured.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Samples latUs;        ///< Per-op end-to-end latency, us.
    double lateSumUs = 0; ///< Summed send lateness, us.
    uint64_t lateCount = 0;

    void late(double us)
    {
        lateSumUs += us;
        ++lateCount;
    }
};

/**
 * Modeled DRAM cost of the workload's canonical unit of work (one
 * stream, one cycle of streams, one batch per request class), read
 * from StreamResult or per-device stats deltas. Deterministic.
 */
struct ModeledUnit
{
    simdram::DramStats compute;
    simdram::DramStats transfer;
    double elementOps = 0.0; ///< lanes x bbop ops in the unit.
    double bbopOps = 0.0;    ///< bbop op instructions in the unit.
    double endOps = 1.0;     ///< End-to-end ops (streams/requests).
};

/** Stream-level runtime counters accumulated over timed windows. */
struct RuntimeCounters
{
    double streams = 0;
    double instructions = 0;
    double cached = 0;
    double optimized = 0;
    double queueDepthSum = 0;
    double backpressureNs = 0;
    double e2eNs = 0;
    double retried = 0;
    Samples e2eUs; ///< StreamResult::e2eNs() per stream, us.

    void add(const simdram::StreamResult &r);
    void merge(const RuntimeCounters &o);
};

/** Serving-layer figures a workload (or the ledger) measured. */
struct ServeFigures
{
    std::vector<double> submitUs;  ///< Inside RequestCoalescer::submit.
    std::vector<double> queueUs;   ///< ServeResult::queueNs.
    std::vector<double> executeUs; ///< ServeResult::executeNs.
    std::vector<double> batchFill; ///< batchSize / maxBatch.
    std::vector<double> tenantUs;  ///< Per tenant stream, e2e.
    double tenantShed = 0;
};

/** A benchmark workload: set up, run timed windows, check, report. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds everything up to the first timed op. */
    virtual void setup() = 0;
    /** Destroys what setup() built. */
    virtual void teardown() = 0;
    /**
     * Runs the workload for @p seconds; @p tr is nullptr when
     * tracing is off.
     */
    virtual Window run(double seconds, Tracer *tr) = 0;
    /** Reads back and checks outputs; fills the modeled unit. */
    virtual void finish(Report &rep, ModeledUnit &unit) = 0;
    /** Stream-level counters of the timed windows. */
    virtual const RuntimeCounters &counters() const = 0;
    /** Per-layer probes on the workload's own programs (traced). */
    virtual void probeLayers(Report &rep) = 0;
    /** Serving-layer figures, if the workload routes through them. */
    virtual bool serveFigures(ServeFigures &out) const = 0;
};

std::unique_ptr<Workload> makeBulkWide(uint64_t seed);
std::unique_ptr<Workload> makeSmallStreams(uint64_t seed);
std::unique_ptr<Workload> makeServeMix(uint64_t seed);

/**
 * The layer ledger: the same 256x8 BitAnd through Processor::run,
 * raw StreamExecutor::submit, StreamBuilder, a tenant view and a
 * coalescer, at 1 and 4 devices. Adds ledger.* metrics and fills
 * @p serve with the d4 tenant/coalescer figures.
 */
void runLedger(Report &rep, ServeFigures &serve);

/** Prints the modeled SIMDRAM-vs-Ambit ratios of the bulk chain. */
void paperContext(Report &rep);

// ---- Layer probes (probes.cc) -------------------------------------

/** One bbop operation of a workload's op set. */
struct OpUse
{
    simdram::OpKind op;
    size_t width;
};

/** A BbopObjectView over an explicit list of shapes (by id). */
class ShapeTable : public simdram::BbopObjectView
{
  public:
    explicit ShapeTable(std::vector<simdram::BbopObjectShape> s)
        : shapes_(std::move(s))
    {}
    /** Snapshots every object id below @p count of @p svc. */
    static ShapeTable of(const simdram::StreamService &svc,
                         size_t count);
    size_t objectCount() const override { return shapes_.size(); }
    simdram::BbopObjectShape shape(uint16_t id) const override
    {
        return shapes_.at(id);
    }

  private:
    std::vector<simdram::BbopObjectShape> shapes_;
};

/** Programs a workload submits, with the object table they see. */
struct ProgramSet
{
    ShapeTable view;
    std::vector<simdram::StreamIR> programs;
};

/** @return The distinct bbop operations (op, width) of @p set. */
std::vector<OpUse> opsOf(const ProgramSet &set);

/** @return Live bbop op instructions (not trsp/init/shift) in @p ir. */
size_t bbopOpCount(const simdram::StreamIR &ir);

/**
 * uprog.compile_ms: cold Processor::program() time for @p ops on a
 * fresh Processor with @p cfg (median of several fresh processors).
 */
double probeCompileMs(const simdram::DramConfig &cfg,
                      const std::vector<OpUse> &ops);

/**
 * isa.validate_us / stream.passes_us / analysis.lint_us: the shared
 * validator, the optimizer passes and the analyzer over each program
 * of @p sets against its entry view; the median per program, averaged
 * over the programs.
 */
void probeFrontEnd(Report &rep, const std::vector<ProgramSet> &sets);

/**
 * exec.run_us / exec.ns_per_cmd: replays every op node of @p sets on
 * a bare Processor holding @p lanes lanes of each object (one
 * device's shard) and times each Processor::run.
 */
void probeReplay(Report &rep, const simdram::DramConfig &cfg,
                 const std::vector<ProgramSet> &sets, size_t lanes,
                 uint64_t seed);

/** Adds the per-layer counters derived from the modeled unit. */
void addUnitLayerMetrics(Report &rep, const ModeledUnit &unit);

/** Adds runtime.* ratios from stream-level counters. */
void addRuntimeLayerMetrics(Report &rep, const RuntimeCounters &c);

/** Adds the serve.* and tenant.* metrics. */
void addServeLayerMetrics(Report &rep, const ServeFigures &f);

/** Standard executor options of every workload (lint in Warn). */
simdram::StreamExecutorOptions lintedOptions();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
