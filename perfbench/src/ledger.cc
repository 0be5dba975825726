/**
 * @file
 * The layer ledger: one 256x8 BitAnd sent through each layer of the
 * stack in turn, at 1 and 4 devices, so a reader can see what each
 * layer adds on top of the one below it. The 256-lane objects fit one
 * segment, so at 4 devices they still live on device 0 alone.
 */

#include "common/rng.h"
#include "exec/processor.h"
#include "runtime/device_group.h"
#include "serve/request_coalescer.h"
#include "stream/stream_builder.h"
#include "tenant/tenant_executor.h"

#include "bench.h"

namespace perfbench
{

using namespace simdram;

namespace
{

constexpr size_t kLanes = 256;
constexpr size_t kBits = 8;
constexpr int kWarmup = 20;
constexpr int kReps = 300;

DramConfig
ledgerCfg()
{
    return DramConfig::forTesting(256, 512);
}

/** @return The median host us of @p fn over kReps calls (warmed). */
template <typename Fn>
double
ledgerUs(Fn &&fn)
{
    for (int i = 0; i < kWarmup; ++i)
        fn();
    std::vector<double> us;
    us.reserve(kReps);
    for (int i = 0; i < kReps; ++i) {
        const int64_t t0 = nowNs();
        fn();
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return median(std::move(us));
}

struct Operands
{
    std::vector<uint64_t> a, b, expected;
};

/** Defines a, b, y on @p svc, loads a and b, transposes all three. */
void
loadOperands(StreamService &svc, const Operands &in, uint16_t &a,
             uint16_t &b, uint16_t &y)
{
    a = svc.defineObject(kLanes, kBits);
    b = svc.defineObject(kLanes, kBits);
    y = svc.defineObject(kLanes, kBits);
    svc.writeObject(a, in.a);
    svc.writeObject(b, in.b);
    StreamBuilder(svc).trsp(a).trsp(b).trsp(y).submit().wait();
}

/** Reads y back through the service and checks it. */
void
checkResult(Report &rep, StreamService &svc, uint16_t y,
            const Operands &in, const char *layer)
{
    StreamBuilder(svc).trspInv(y).submit().wait();
    if (svc.readObject(y) != in.expected)
        rep.mismatch(std::string("ledger: ") + layer +
                     " result differs from a & b");
}

void
ledgerAt(Report &rep, size_t devices, const Operands &in,
         ServeFigures &serve)
{
    const std::string tag = "ledger.d" + std::to_string(devices) + ".";
    DeviceGroup group(ledgerCfg(), devices);
    StreamExecutor ex(group, lintedOptions());

    uint16_t a, b, y;
    loadOperands(ex, in, a, b, y);
    const std::vector<BbopInstr> raw = {
        BbopInstr::binary(OpKind::BitAnd, kBits, y, a, b)};
    rep.add(tag + "executor_us",
            ledgerUs([&] { ex.submit(raw).wait(); }), "us");
    rep.add(tag + "builder_us", ledgerUs([&] {
                StreamBuilder(ex)
                    .binary(OpKind::BitAnd, y, a, b)
                    .submit()
                    .wait();
            }),
            "us");
    checkResult(rep, ex, y, in, "executor");

    TenantExecutor te(ex);
    TenantConfig tc;
    tc.name = "ledger";
    const uint32_t tid = te.registerTenant(tc);
    StreamService &view = te.view(tid);
    uint16_t va, vb, vy;
    loadOperands(view, in, va, vb, vy);
    const double tenantUs = ledgerUs([&] {
        StreamBuilder(view)
            .binary(OpKind::BitAnd, vy, va, vb)
            .submit()
            .wait();
    });
    rep.add(tag + "tenant_us", tenantUs, "us");
    checkResult(rep, view, vy, in, "tenant view");

    // A coalescer with batch capacity 1 and no linger: one request is
    // one fused program (write operands, transpose, BitAnd, read).
    RequestCoalescer co(view, CoalescerOptions{1, 0.0, 0,
                                               AdmissionPolicy::Shed,
                                               "ledger"});
    RequestClassSpec spec;
    spec.name = "and8";
    spec.elements = kLanes;
    spec.bits = kBits;
    spec.requestInputs = 2;
    spec.emit = [](StreamBuilder &sb, const BatchLayout &L) {
        sb.binary(OpKind::BitAnd, L.output, L.request[0], L.request[1]);
    };
    const uint32_t cls = co.registerClass(spec);
    const std::vector<std::vector<uint64_t>> inputs = {in.a, in.b};
    ServeFigures fig;
    bool ok = true;
    rep.add(tag + "coalescer_us", ledgerUs([&] {
                const int64_t t0 = nowNs();
                ServeFuture f = co.submit(cls, inputs);
                fig.submitUs.push_back(
                    static_cast<double>(nowNs() - t0) / 1e3);
                const ServeResult r = f.wait();
                ok = ok && r.output == in.expected;
                fig.queueUs.push_back(r.queueNs / 1e3);
                fig.executeUs.push_back(r.executeNs / 1e3);
                fig.batchFill.push_back(static_cast<double>(r.batchSize));
            }),
            "us");
    if (!ok)
        rep.mismatch("ledger: coalescer result differs from a & b");
    co.drain();
    te.drain();
    fig.tenantUs = {tenantUs};
    fig.tenantShed = static_cast<double>(te.stats(tid).shed);
    if (ex.lintDiagnosticCount() != 0)
        rep.mismatch("ledger streams did not analyze clean");
    serve = std::move(fig);
}

} // namespace

void
runLedger(Report &rep, ServeFigures &serve)
{
    Rng rng(0x1ed9e5);
    Operands in;
    for (size_t i = 0; i < kLanes; ++i) {
        in.a.push_back(rng.next() & 0xff);
        in.b.push_back(rng.next() & 0xff);
        in.expected.push_back(in.a.back() & in.b.back());
    }

    Processor p(ledgerCfg());
    const auto a = p.alloc(kLanes, kBits);
    const auto b = p.alloc(kLanes, kBits);
    const auto y = p.alloc(kLanes, kBits);
    p.store(a, in.a);
    p.store(b, in.b);
    rep.add("ledger.processor_us",
            ledgerUs([&] { p.run(OpKind::BitAnd, y, a, b); }), "us");
    if (p.load(y) != in.expected)
        rep.mismatch("ledger: Processor result differs from a & b");

    ServeFigures d1;
    ledgerAt(rep, 1, in, d1);
    ledgerAt(rep, 4, in, serve);
}

} // namespace perfbench
