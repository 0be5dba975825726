/**
 * @file
 * Workload serve-mix: a 2-device group shared by two tenants on one
 * TenantExecutor. Each tenant has its own RequestCoalescer (maxBatch
 * 8, linger 200 us). Requests alternate between knn queries (256
 * refs x 4 dims x 16 bits, shared columns resident) and tpch filter
 * chunks (256 rows x 32 bits, fresh data every request). One
 * generator runs an open loop at a fixed absolute rate.
 *
 * Why: it runs the whole stack (coalescer, tenant, executor, devices)
 * with writes beside reads and cache hits beside misses, under real
 * queueing.
 */

#include <sys/prctl.h>

#include <cerrno>
#include <ctime>
#include <deque>

#include "common/rng.h"
#include "runtime/device_group.h"
#include "serve/request_coalescer.h"
#include "serve/workloads.h"
#include "tenant/tenant_executor.h"

#include "bench.h"

namespace perfbench
{

using namespace simdram;

namespace
{

constexpr size_t kDevices = 2;
constexpr size_t kMaxBatch = 8;
constexpr double kLingerUs = 200.0;
constexpr size_t kMaxPending = 1024;
constexpr size_t kPool = 64;
constexpr size_t kWarmupPerClass = 2;
/**
 * Offered load, requests per second over both classes: a fixed
 * absolute rate (never calibrated from the run itself, so the load
 * does not move with the noise), about a third of this stack's quiet
 * capacity on a 4-core x86 host.
 */
constexpr double kRatePerSec = 6000.0;

const KnnServeSpec kKnn{/*refs=*/256, /*dims=*/4, /*bits=*/16};
const TpchFilterSpec kTpch{/*rows=*/256, /*bits=*/32};

DramConfig
serveCfg()
{
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

/**
 * A pass-through StreamService between a coalescer and its tenant
 * view. It keeps every handle it returns until the stream is done and
 * then folds the StreamResult into the workload's counters; with a
 * tracer attached it also waits for each batch inside submit() (the
 * coalescer's dispatcher waits right after submitting anyway) so the
 * tenant stream's end-to-end span can be recorded.
 */
class Tap : public StreamService
{
  public:
    explicit Tap(StreamService &inner) : inner_(&inner) {}

    uint16_t
    defineObject(size_t elements, size_t bits) override
    {
        return inner_->defineObject(elements, bits);
    }
    void releaseObject(uint16_t id) override { inner_->releaseObject(id); }
    BbopObjectShape
    objectShape(uint16_t id) const override
    {
        return inner_->objectShape(id);
    }
    void sync() override { inner_->sync(); }

    void
    writeObject(uint16_t id, const std::vector<uint64_t> &data) override
    {
        const int64_t t0 = nowNs();
        inner_->writeObject(id, data);
        if (tracer)
            tracer->add("layout.write", batches_, t0, nowNs());
    }

    std::vector<uint64_t>
    readObject(uint16_t id) override
    {
        const int64_t t0 = nowNs();
        auto out = inner_->readObject(id);
        if (tracer)
            tracer->add("layout.read", batches_, t0, nowNs());
        return out;
    }

    StreamHandle
    submit(const std::vector<BbopInstr> &stream) override
    {
        return submit(StreamIR::lift(stream)).at(0);
    }

    std::vector<StreamHandle>
    submit(const StreamIR &ir) override
    {
        harvest(false);
        const uint64_t op = ++batches_;
        if (program.nodes.empty())
            program = ir;
        const int64_t t0 = nowNs();
        std::vector<StreamHandle> hs = inner_->submit(ir);
        const int64_t t1 = nowNs();
        if (tracer) {
            const uint32_t root = tracer->newId();
            tracer->add("tenant.submit", op, t0, t1, root);
            for (auto &h : hs)
                h.waitResult();
            const int64_t t2 = nowNs();
            tracer->add("runtime.wait", op, t1, t2, root);
            tracer->record(root, 0, "tenant.stream", op, t0, t2);
        }
        for (const auto &h : hs)
            pending_.push_back(h);
        return hs;
    }

    /** Folds finished streams into the counters (all if @p all). */
    void
    harvest(bool all)
    {
        while (!pending_.empty() && (all || pending_.front().done())) {
            const StreamResult r = pending_.front().waitResult();
            pending_.pop_front();
            counters.add(r);
            last = r;
        }
    }

    Tracer *tracer = nullptr;
    RuntimeCounters counters;
    StreamResult last; ///< Most recently harvested stream.
    StreamIR program;  ///< The class's batch program, as submitted.

  private:
    StreamService *inner_;
    std::deque<StreamHandle> pending_;
    uint64_t batches_ = 0;
};

struct Request
{
    std::vector<std::vector<uint64_t>> inputs;
    std::vector<uint64_t> expected;
};

class ServeMix : public Workload
{
  public:
    explicit ServeMix(uint64_t seed) : seed_(seed)
    {
        Rng rng(seed);
        refs_.assign(kKnn.dims, std::vector<uint64_t>(kKnn.refs));
        for (auto &col : refs_)
            for (auto &v : col)
                v = rng.below(1000);
        for (size_t i = 0; i < kPool; ++i) {
            std::vector<uint64_t> coords(kKnn.dims);
            for (auto &c : coords)
                c = rng.below(1000);
            knnPool_.push_back({knnQueryRequest(kKnn, coords),
                                knnQueryHost(kKnn, refs_, coords)});
            std::vector<uint64_t> column(kTpch.rows);
            for (auto &v : column)
                v = rng.next() & 0xffffffffULL;
            const uint64_t threshold = rng.next() & 0xffffffffULL;
            tpchPool_.push_back(
                {tpchFilterRequest(kTpch, column, threshold),
                 tpchFilterHost(kTpch, column, threshold)});
        }
    }

    void
    setup() override
    {
        group_ = std::make_unique<DeviceGroup>(serveCfg(), kDevices);
        ex_ = std::make_unique<StreamExecutor>(*group_, lintedOptions());
        te_ = std::make_unique<TenantExecutor>(*ex_);
        for (size_t c = 0; c < 2; ++c) {
            TenantConfig tc;
            tc.name = c == 0 ? "knn" : "tpch";
            tid_[c] = te_->registerTenant(tc);
            tap_[c] = std::make_unique<Tap>(te_->view(tid_[c]));
            CoalescerOptions co{kMaxBatch, kLingerUs, kMaxPending,
                                AdmissionPolicy::Shed, tc.name};
            co_[c] = std::make_unique<RequestCoalescer>(*tap_[c], co);
        }
        cls_[0] = co_[0]->registerClass(knnQueryClass(kKnn, refs_));
        cls_[1] = co_[1]->registerClass(tpchFilterClass(kTpch));

        // Warm-up defines the class objects, makes the knn columns
        // resident and compiles every uProgram. The last batch of
        // each class is then the priced modeled unit: batches are
        // zero-padded to capacity, so every warm batch of a class
        // costs the same modeled time and energy.
        for (size_t i = 0; i < kWarmupPerClass; ++i)
            for (size_t c = 0; c < 2; ++c) {
                const Request &r = pool(c, i);
                if (co_[c]->submit(cls_[c], r.inputs).wait().output !=
                    r.expected)
                    setupError_ = "warm-up result differs";
            }
        for (size_t c = 0; c < 2; ++c) {
            tap_[c]->harvest(true);
            priced_[c] = tap_[c]->last;
            program_[c] = tap_[c]->program;
            tap_[c]->counters = {};
        }
    }

    void
    teardown() override
    {
        for (auto &c : co_)
            c.reset();
        for (auto &t : tap_)
            t.reset();
        te_.reset();
        ex_.reset();
        group_.reset();
    }

    Window
    run(double seconds, Tracer *tr) override
    {
        struct Sent
        {
            ServeFuture fut;
            const Request *req;
            uint64_t op;
            int64_t scheduled;
            int64_t sent;
        };
        for (auto &t : tap_)
            t->tracer = tr;
        Window win;
        std::deque<Sent> q;
        auto collect = [&](Sent &s) {
            try {
                const ServeResult r = s.fut.wait();
                const double lat =
                    static_cast<double>(s.sent - s.scheduled) + r.totalNs;
                if (r.output != s.req->expected) {
                    ++win.failed;
                    ++mismatches_;
                    return;
                }
                win.latUs.add(lat / 1e3);
                if (tr) {
                    serve_.queueUs.push_back(r.queueNs / 1e3);
                    serve_.executeUs.push_back(r.executeNs / 1e3);
                    serve_.batchFill.push_back(
                        static_cast<double>(r.batchSize) / kMaxBatch);
                    tr->add("request", s.op, s.scheduled,
                            s.sent + static_cast<int64_t>(r.totalNs));
                }
            } catch (const std::exception &) {
                ++win.failed;
            }
        };

        // 1 us timer slack so the sleeps below end on time.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
        const double intervalNs = 1e9 / kRatePerSec;
        const int64_t start = nowNs();
        const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
        for (uint64_t i = 0;; ++i) {
            const int64_t due =
                start + static_cast<int64_t>(intervalNs *
                                             static_cast<double>(i));
            if (due >= end)
                break;
            // Collect finished requests while waiting for the slot.
            while (!q.empty() && q.front().fut.done()) {
                collect(q.front());
                q.pop_front();
            }
            // Sleep to the slot on the absolute monotonic clock (the
            // steady_clock's): a spinning generator would hold a core
            // the stack's own threads then queue behind.
            const timespec at{static_cast<time_t>(due / 1'000'000'000),
                              static_cast<long>(due % 1'000'000'000)};
            while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at,
                                   nullptr) == EINTR) {
            }
            const size_t c = i % 2;
            const Request &req = pool(c, ++sent_[c]);
            const uint64_t op = ++opSeq_;
            const int64_t t0 = nowNs();
            ++win.attempted;
            win.late(static_cast<double>(t0 - due) / 1e3);
            try {
                ServeFuture f = co_[c]->submit(cls_[c], req.inputs);
                const int64_t t1 = nowNs();
                if (tr) {
                    serve_.submitUs.push_back(
                        static_cast<double>(t1 - t0) / 1e3);
                    tr->add("serve.submit", op, t0, t1);
                }
                q.push_back({std::move(f), &req, op, due, t0});
            } catch (const RequestShedError &) {
                ++win.failed;
            }
        }
        for (auto &c : co_)
            c->drain();
        for (auto &s : q)
            collect(s);
        win.seconds = static_cast<double>(nowNs() - start) / 1e9;
        for (auto &t : tap_) {
            t->harvest(true);
            t->tracer = nullptr;
        }
        return win;
    }

    void
    finish(Report &rep, ModeledUnit &unit) override
    {
        if (!setupError_.empty())
            rep.mismatch("serve-mix " + setupError_);
        if (mismatches_ != 0)
            rep.mismatch("serve-mix: " + std::to_string(mismatches_) +
                         " responses differ from the host reference");
        if (ex_->lintDiagnosticCount() != 0)
            rep.mismatch("serve-mix batch programs did not analyze "
                         "clean");
        for (size_t c = 0; c < 2; ++c) {
            unit.compute += priced_[c].compute;
            unit.transfer += priced_[c].transfer;
            const double ops =
                static_cast<double>(bbopOpCount(program_[c]));
            unit.bbopOps += ops;
            unit.elementOps += ops * static_cast<double>(
                                         kMaxBatch * kKnn.refs);
        }
        unit.endOps = 2.0 * kMaxBatch;
        counters_ = {};
        for (const auto &t : tap_)
            counters_.merge(t->counters);
    }

    const RuntimeCounters &counters() const override { return counters_; }

    void
    probeLayers(Report &rep) override
    {
        std::vector<ProgramSet> sets;
        std::vector<OpUse> ops;
        for (size_t c = 0; c < 2; ++c) {
            uint16_t maxId = 0;
            for (const StreamNode &n : program_[c].nodes)
                for (uint16_t id : {n.instr.dst, n.instr.src1,
                                    n.instr.src2, n.instr.sel})
                    if (id != kNoObject && id > maxId)
                        maxId = id;
            sets.push_back({ShapeTable::of(*tap_[c], maxId + 1u),
                            {program_[c]}});
            for (const OpUse &o : opsOf(sets.back()))
                ops.push_back(o);
        }
        rep.add("uprog.compile_ms", probeCompileMs(serveCfg(), ops), "ms");
        probeFrontEnd(rep, sets);
        probeReplay(rep, serveCfg(), sets, kMaxBatch * kKnn.refs, seed_);
    }

    bool
    serveFigures(ServeFigures &out) const override
    {
        out = serve_;
        out.tenantShed = 0;
        for (uint32_t t : tid_)
            out.tenantShed += static_cast<double>(te_->stats(t).shed);
        return true;
    }

  private:
    const Request &
    pool(size_t c, size_t i) const
    {
        return (c == 0 ? knnPool_ : tpchPool_)[i % kPool];
    }

    uint64_t seed_;
    std::vector<std::vector<uint64_t>> refs_;
    std::vector<Request> knnPool_, tpchPool_;
    std::unique_ptr<DeviceGroup> group_;
    std::unique_ptr<StreamExecutor> ex_;
    std::unique_ptr<TenantExecutor> te_;
    uint32_t tid_[2] = {0, 0};
    std::unique_ptr<Tap> tap_[2];
    std::unique_ptr<RequestCoalescer> co_[2];
    uint32_t cls_[2] = {0, 0};
    StreamResult priced_[2];
    StreamIR program_[2];
    size_t sent_[2] = {0, 0};
    uint64_t opSeq_ = 0;
    uint64_t mismatches_ = 0;
    std::string setupError_;
    RuntimeCounters counters_;
    ServeFigures serve_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix(uint64_t seed)
{
    return std::make_unique<ServeMix>(seed);
}

} // namespace perfbench
