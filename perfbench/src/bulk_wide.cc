/**
 * @file
 * Workload bulk-wide: a 4-device group with 4096-lane rows and two
 * compute banks per device holds 64 Ki 16-bit lanes. Each stream is a
 * live 7-op chain (add, sub, max, gt, abs, mul, if-else) whose result
 * becomes the next stream's input, so the final readback checks every
 * stream. Closed loop, one stream in flight.
 *
 * Why: host time is almost all uProgram replay and BitRow kernels, and
 * the modeled time is the paper's own metric.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "apps/engine.h"
#include "common/rng.h"
#include "ops/op_kind.h"
#include "runtime/device_group.h"
#include "stream/stream_builder.h"

#include "bench.h"

namespace perfbench
{

using namespace simdram;

namespace
{

constexpr size_t kDevices = 4;
constexpr size_t kLanes = 16 * 4096; // 16 segments, 4 per device
constexpr size_t kBits = 16;
constexpr size_t kWarmupStreams = 3;
constexpr uint64_t kMask = (1ULL << kBits) - 1;

/** The chain, in stream order (the shape paperContext prices). */
constexpr OpKind kChain[] = {OpKind::Add, OpKind::Sub,    OpKind::Max,
                             OpKind::Gt,  OpKind::Abs,    OpKind::Mul,
                             OpKind::IfElse};
constexpr size_t kChainOps = sizeof(kChain) / sizeof(kChain[0]);

DramConfig
bulkCfg()
{
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

/** One lane of one stream, through the golden scalar reference. */
inline uint64_t
chainRef(uint64_t a, uint64_t b, uint64_t c)
{
    const uint64_t t = referenceOp(OpKind::Add, kBits, a, b);
    const uint64_t u = referenceOp(OpKind::Sub, kBits, t, c);
    const uint64_t v = referenceOp(OpKind::Max, kBits, u, a);
    const uint64_t m = referenceOp(OpKind::Gt, kBits, v, b);
    const uint64_t w = referenceOp(OpKind::Abs, kBits, u, 0);
    const uint64_t x = referenceOp(OpKind::Mul, kBits, w, c);
    return referenceOp(OpKind::IfElse, kBits, x, v, m != 0);
}

class BulkWide : public Workload
{
  public:
    explicit BulkWide(uint64_t seed) : seed_(seed)
    {
        Rng rng(seed);
        for (auto *v : {&a0_, &b0_, &c0_}) {
            v->resize(kLanes);
            for (auto &x : *v)
                x = rng.next() & kMask;
        }
    }

    void
    setup() override
    {
        group_ = std::make_unique<DeviceGroup>(bulkCfg(), kDevices);
        ex_ = std::make_unique<StreamExecutor>(*group_, lintedOptions());
        a_ = ex_->defineObject(kLanes, kBits);
        b_ = ex_->defineObject(kLanes, kBits);
        c_ = ex_->defineObject(kLanes, kBits);
        t_ = ex_->defineObject(kLanes, kBits);
        u_ = ex_->defineObject(kLanes, kBits);
        v_ = ex_->defineObject(kLanes, kBits);
        w_ = ex_->defineObject(kLanes, kBits);
        x_ = ex_->defineObject(kLanes, kBits);
        m_ = ex_->defineObject(kLanes, 1);
        ex_->writeObject(a_, a0_);
        ex_->writeObject(b_, b0_);
        ex_->writeObject(c_, c0_);
        StreamBuilder load(*ex_);
        load.trsp(a_).trsp(b_).trsp(c_).submit().wait();

        StreamBuilder sb(*ex_);
        sb.binary(OpKind::Add, t_, a_, b_)
            .binary(OpKind::Sub, u_, t_, c_)
            .binary(OpKind::Max, v_, u_, a_)
            .binary(OpKind::Gt, m_, v_, b_)
            .unary(OpKind::Abs, w_, u_)
            .binary(OpKind::Mul, x_, w_, c_)
            .predicated(OpKind::IfElse, a_, x_, v_, m_);
        chain_ = sb.build();

        // Warm-up: every device compiles the seven uPrograms and
        // builds their replay plans.
        streams_ = 0;
        for (size_t i = 0; i < kWarmupStreams; ++i) {
            for (auto &h : ex_->submit(chain_))
                h.wait();
            ++streams_;
        }
    }

    void
    teardown() override
    {
        ex_.reset();
        group_.reset();
    }

    Window
    run(double seconds, Tracer *tr) override
    {
        Window win;
        const int64_t start = nowNs();
        const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
        int64_t due = start;
        int64_t last = start;
        while (error_.empty() && nowNs() < end) {
            const uint64_t op = ++opSeq_;
            const int64_t t0 = nowNs();
            ++win.attempted;
            try {
                std::vector<StreamHandle> hs = ex_->submit(chain_);
                const int64_t t1 = nowNs();
                const StreamResult r = hs.at(0).wait();
                const int64_t t2 = nowNs();
                ++streams_;
                counters_.add(r);
                unit_ = r;
                win.latUs.add(static_cast<double>(t2 - t0) / 1e3);
                win.late(static_cast<double>(t0 - due) / 1e3);
                if (tr) {
                    const uint32_t root = tr->newId();
                    tr->add("runtime.submit", op, t0, t1, root);
                    tr->add("runtime.wait", op, t1, t2, root);
                    tr->record(root, 0, "op", op, t0, t2);
                }
                due = last = t2;
            } catch (const std::exception &e) {
                ++win.failed;
                error_ = e.what();
            }
        }
        win.seconds = static_cast<double>(last - start) / 1e9;
        return win;
    }

    void
    finish(Report &rep, ModeledUnit &unit) override
    {
        if (!error_.empty())
            rep.mismatch("bulk-wide stream failed: " + error_);
        StreamBuilder sb(*ex_);
        sb.trspInv(a_).submit().wait();
        const std::vector<uint64_t> got = ex_->readObject(a_);
        if (ex_->lintDiagnosticCount() != 0)
            rep.mismatch("bulk-wide streams did not analyze clean");

        // Every lane is independent: check all 64 Ki lanes against
        // the scalar reference replayed over every executed stream,
        // split over the host's cores.
        const size_t threads = std::clamp<size_t>(
            std::thread::hardware_concurrency(), 1, 4);
        std::vector<size_t> bad(threads, 0);
        std::vector<std::thread> pool;
        const uint64_t streams = streams_;
        for (size_t k = 0; k < threads; ++k)
            pool.emplace_back([&, k] {
                for (size_t i = k; i < kLanes; i += threads) {
                    uint64_t a = a0_[i];
                    for (uint64_t s = 0; s < streams; ++s)
                        a = chainRef(a, b0_[i], c0_[i]);
                    bad[k] += a != got[i];
                }
            });
        for (auto &t : pool)
            t.join();
        size_t mismatches = 0;
        for (size_t b : bad)
            mismatches += b;
        if (mismatches != 0)
            rep.mismatch("bulk-wide: " + std::to_string(mismatches) +
                         " of " + std::to_string(kLanes) +
                         " lanes differ from the reference after " +
                         std::to_string(streams) + " streams");

        unit.compute = unit_.compute;
        unit.transfer = unit_.transfer;
        unit.bbopOps = static_cast<double>(kChainOps);
        unit.elementOps = static_cast<double>(kLanes * kChainOps);
        unit.endOps = 1;
    }

    const RuntimeCounters &counters() const override { return counters_; }

    void
    probeLayers(Report &rep) override
    {
        ProgramSet set{ShapeTable::of(*ex_, m_ + 1u), {chain_}};
        rep.add("uprog.compile_ms", probeCompileMs(bulkCfg(), opsOf(set)),
                "ms");
        probeFrontEnd(rep, {set});
        probeReplay(rep, bulkCfg(), {set}, kLanes / kDevices, seed_);

        // writeObject of a transposed object runs the transposition
        // unit on every device; readObject drains and copies out.
        const uint16_t p = ex_->defineObject(kLanes, kBits);
        StreamBuilder(*ex_).trsp(p).submit().wait();
        std::vector<double> wr, rd;
        for (int r = 0; r < 20; ++r) {
            const int64_t t0 = nowNs();
            ex_->writeObject(p, b0_);
            const int64_t t1 = nowNs();
            const auto back = ex_->readObject(p);
            const int64_t t2 = nowNs();
            if (back != b0_)
                rep.mismatch("bulk-wide: writeObject/readObject "
                             "round trip differs");
            wr.push_back(static_cast<double>(t1 - t0) / 1e3);
            rd.push_back(static_cast<double>(t2 - t1) / 1e3);
        }
        rep.add("layout.write_us", median(wr), "us");
        rep.add("layout.read_us", median(rd), "us");
    }

    bool serveFigures(ServeFigures &) const override { return false; }

  private:
    uint64_t seed_;
    std::vector<uint64_t> a0_, b0_, c0_;
    std::unique_ptr<DeviceGroup> group_;
    std::unique_ptr<StreamExecutor> ex_;
    uint16_t a_ = 0, b_ = 0, c_ = 0, t_ = 0, u_ = 0, v_ = 0, w_ = 0,
             x_ = 0, m_ = 0;
    StreamIR chain_;
    uint64_t streams_ = 0; ///< Chain streams run since the data load.
    uint64_t opSeq_ = 0;
    RuntimeCounters counters_;
    StreamResult unit_;
    std::string error_;
};

} // namespace

std::unique_ptr<Workload>
makeBulkWide(uint64_t seed)
{
    return std::make_unique<BulkWide>(seed);
}

void
paperContext(Report &rep)
{
    // Price the bulk-wide chain on the paper's full-size device with
    // the SIMDRAM compiler and with Ambit's per-gate recipes, one
    // compute bank each, over the same 64 Ki lanes.
    InDramEngine simdram(DramConfig::simdramConfig(1), Backend::Simdram,
                         "SIMDRAM:1");
    InDramEngine ambit(DramConfig::simdramConfig(1), Backend::Ambit,
                       "Ambit");
    KernelCost s, a;
    for (OpKind op : kChain) {
        s.add(simdram.opCost(op, kBits, kLanes));
        a.add(ambit.opCost(op, kBits, kLanes));
    }
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "paper context (unvalidated model, no reference "
                  "measurements in the repo): bulk-wide chain "
                  "SIMDRAM vs Ambit throughput %.2fx, energy "
                  "efficiency %.2fx; abstract: up to 5.1x / 2.5x",
                  a.latencyNs() / s.latencyNs(),
                  a.energyPj() / s.energyPj());
    rep.notes.push_back(buf);
}

} // namespace perfbench
