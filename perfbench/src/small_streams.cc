/**
 * @file
 * Workload small-streams: a 4-device group with 256-lane rows. Every
 * object is 256 lanes of 8 bits and fits one segment, so all of them
 * live on device 0. One submitter keeps 8 one- and two-op streams in
 * flight; each stream folds the carried state with an input, so the
 * final readback checks every stream.
 *
 * Why: device work is about 2 us per stream, so submit() and the
 * cross-thread handoff dominate host time.
 */

#include <deque>

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
constexpr size_t kLanes = 256;
constexpr size_t kBits = 8;
constexpr size_t kInFlight = 8;
constexpr uint64_t kMask = (1ULL << kBits) - 1;

DramConfig
smallCfg()
{
    return DramConfig::forTesting(256, 512);
}

/**
 * One stream of the cycle: out = second(first(s, x), y) for two-op
 * streams, out = first(s, x) for one-op streams. Operands name the
 * inputs: 'a' or 'b'.
 */
struct Step
{
    OpKind first;
    char x;
    bool twoOps;
    OpKind second;
    char y;
};

// Alternating one- and two-op streams; the cycle length equals the
// in-flight window, and every op is defined at 8 bits.
constexpr Step kCycle[kInFlight] = {
    {OpKind::Add, 'a', false, OpKind::Add, 'a'},
    {OpKind::BitXor, 'b', true, OpKind::Sub, 'a'},
    {OpKind::Max, 'b', false, OpKind::Add, 'a'},
    {OpKind::Add, 'b', true, OpKind::BitXor, 'a'},
    {OpKind::Sub, 'b', false, OpKind::Add, 'a'},
    {OpKind::Min, 'a', true, OpKind::Add, 'b'},
    {OpKind::BitXor, 'a', false, OpKind::Add, 'a'},
    {OpKind::Sub, 'a', true, OpKind::Max, 'b'},
};

class SmallStreams : public Workload
{
  public:
    explicit SmallStreams(uint64_t seed) : seed_(seed)
    {
        Rng rng(seed);
        for (auto *v : {&s0_, &a0_, &b0_}) {
            v->resize(kLanes);
            for (auto &x : *v)
                x = rng.next() & kMask;
        }
    }

    void
    setup() override
    {
        group_ = std::make_unique<DeviceGroup>(smallCfg(), kDevices);
        ex_ = std::make_unique<StreamExecutor>(*group_, lintedOptions());
        s_[0] = ex_->defineObject(kLanes, kBits);
        s_[1] = ex_->defineObject(kLanes, kBits);
        t_ = ex_->defineObject(kLanes, kBits);
        a_ = ex_->defineObject(kLanes, kBits);
        b_ = ex_->defineObject(kLanes, kBits);
        ex_->writeObject(s_[0], s0_);
        ex_->writeObject(a_, a0_);
        ex_->writeObject(b_, b0_);
        StreamBuilder(*ex_).trsp(s_[0]).trsp(a_).trsp(b_).submit().wait();

        cycle_.clear();
        for (size_t k = 0; k < kInFlight; ++k) {
            const Step &st = kCycle[k];
            const uint16_t in = s_[k % 2], out = s_[(k + 1) % 2];
            const uint16_t x = st.x == 'a' ? a_ : b_;
            const uint16_t y = st.y == 'a' ? a_ : b_;
            StreamBuilder sb(*ex_);
            if (st.twoOps)
                sb.binary(st.first, t_, in, x).binary(st.second, out, t_, y);
            else
                sb.binary(st.first, out, in, x);
            cycle_.push_back(sb.build());
        }

        // Warm-up: one full cycle compiles every uProgram.
        streams_ = 0;
        firstCycle_.clear();
        for (const StreamIR &ir : cycle_) {
            for (auto &h : ex_->submit(ir))
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
        struct InFlight
        {
            StreamHandle h;
            uint64_t op;
            int64_t entered;   ///< submit() entry.
            int64_t submitted; ///< submit() return.
            uint32_t root;
        };
        Window win;
        std::deque<InFlight> q;
        const int64_t start = nowNs();
        const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
        int64_t last = start;
        auto retire = [&] {
            InFlight f = std::move(q.front());
            q.pop_front();
            try {
                const StreamResult r = f.h.wait();
                const int64_t t2 = nowNs();
                counters_.add(r);
                win.latUs.add(static_cast<double>(t2 - f.entered) / 1e3);
                if (firstCycle_.size() < kInFlight)
                    firstCycle_.push_back(r);
                if (tr) {
                    tr->add("runtime.wait", f.op, f.submitted, t2, f.root);
                    tr->record(f.root, 0, "op", f.op, f.entered, t2);
                }
                last = t2;
                return t2;
            } catch (const std::exception &e) {
                ++win.failed;
                error_ = e.what();
                return nowNs();
            }
        };
        // Whole cycles only, so the op mix (and so every modeled
        // figure) is identical however long the run is.
        while (error_.empty() && nowNs() < end) {
            for (size_t k = 0; k < kInFlight; ++k) {
                int64_t due = nowNs();
                if (q.size() == kInFlight)
                    due = retire();
                const uint64_t op = ++opSeq_;
                const int64_t t0 = nowNs();
                ++win.attempted;
                win.late(static_cast<double>(t0 - due) / 1e3);
                try {
                    std::vector<StreamHandle> hs = ex_->submit(cycle_[k]);
                    const int64_t t1 = nowNs();
                    uint32_t root = 0;
                    if (tr) {
                        root = tr->newId();
                        tr->add("runtime.submit", op, t0, t1, root);
                    }
                    q.push_back({std::move(hs.at(0)), op, t0, t1, root});
                    ++streams_;
                } catch (const std::exception &e) {
                    ++win.failed;
                    error_ = e.what();
                }
            }
        }
        while (!q.empty())
            retire();
        win.seconds = static_cast<double>(last - start) / 1e9;
        return win;
    }

    void
    finish(Report &rep, ModeledUnit &unit) override
    {
        if (!error_.empty())
            rep.mismatch("small-streams stream failed: " + error_);
        const uint16_t cur = s_[streams_ % 2];
        StreamBuilder(*ex_).trspInv(cur).submit().wait();
        const std::vector<uint64_t> got = ex_->readObject(cur);
        if (ex_->lintDiagnosticCount() != 0)
            rep.mismatch("small-streams did not analyze clean");

        size_t mismatches = 0;
        for (size_t i = 0; i < kLanes; ++i) {
            uint64_t s = s0_[i];
            for (uint64_t n = 0; n < streams_; ++n) {
                const Step &st = kCycle[n % kInFlight];
                const uint64_t x = st.x == 'a' ? a0_[i] : b0_[i];
                const uint64_t y = st.y == 'a' ? a0_[i] : b0_[i];
                s = referenceOp(st.first, kBits, s, x);
                if (st.twoOps)
                    s = referenceOp(st.second, kBits, s, y);
            }
            mismatches += s != got[i];
        }
        if (mismatches != 0)
            rep.mismatch("small-streams: " + std::to_string(mismatches) +
                         " of 256 lanes differ from the reference after " +
                         std::to_string(streams_) + " streams");

        // The modeled unit is one full cycle of the timed run.
        size_t ops = 0;
        for (size_t k = 0; k < firstCycle_.size(); ++k) {
            unit.compute += firstCycle_[k].compute;
            unit.transfer += firstCycle_[k].transfer;
        }
        for (const Step &st : kCycle)
            ops += st.twoOps ? 2 : 1;
        unit.bbopOps = static_cast<double>(ops);
        unit.elementOps = static_cast<double>(ops * kLanes);
        unit.endOps = static_cast<double>(kInFlight);
    }

    const RuntimeCounters &counters() const override { return counters_; }

    void
    probeLayers(Report &rep) override
    {
        ProgramSet set{ShapeTable::of(*ex_, b_ + 1u), cycle_};
        rep.add("uprog.compile_ms",
                probeCompileMs(smallCfg(), opsOf(set)), "ms");
        probeFrontEnd(rep, {set});
        probeReplay(rep, smallCfg(), {set}, kLanes, seed_);

        const uint16_t p = ex_->defineObject(kLanes, kBits);
        StreamBuilder(*ex_).trsp(p).submit().wait();
        std::vector<double> wr, rd;
        for (int r = 0; r < 200; ++r) {
            const int64_t t0 = nowNs();
            ex_->writeObject(p, a0_);
            const int64_t t1 = nowNs();
            const auto back = ex_->readObject(p);
            const int64_t t2 = nowNs();
            if (back != a0_)
                rep.mismatch("small-streams: writeObject/readObject "
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
    std::vector<uint64_t> s0_, a0_, b0_;
    std::unique_ptr<DeviceGroup> group_;
    std::unique_ptr<StreamExecutor> ex_;
    uint16_t s_[2] = {0, 0};
    uint16_t t_ = 0, a_ = 0, b_ = 0;
    std::vector<StreamIR> cycle_;
    uint64_t streams_ = 0; ///< Streams submitted since the data load.
    uint64_t opSeq_ = 0;
    RuntimeCounters counters_;
    std::vector<StreamResult> firstCycle_;
    std::string error_;
};

} // namespace

std::unique_ptr<Workload>
makeSmallStreams(uint64_t seed)
{
    return std::make_unique<SmallStreams>(seed);
}

} // namespace perfbench
