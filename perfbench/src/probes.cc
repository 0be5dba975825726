#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "analysis/stream_analyzer.h"
#include "common/rng.h"
#include "exec/processor.h"
#include "ops/op_kind.h"
#include "stream/passes.h"

#include "bench.h"

namespace perfbench
{

using namespace simdram;

namespace
{

/**
 * @return The median host us of @p fn over enough repetitions to
 *         cover about @p budgetMs (at least 5, at most 2000).
 */
template <typename Fn>
double
medianUs(Fn &&fn, double budgetMs = 20.0)
{
    std::vector<double> us;
    const int64_t stop = nowNs() + static_cast<int64_t>(budgetMs * 1e6);
    while (us.size() < 5 || (us.size() < 2000 && nowNs() < stop)) {
        const int64_t t0 = nowNs();
        fn();
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return median(std::move(us));
}

} // namespace

ShapeTable
ShapeTable::of(const StreamService &svc, size_t count)
{
    std::vector<BbopObjectShape> shapes;
    shapes.reserve(count);
    for (size_t id = 0; id < count; ++id) {
        try {
            shapes.push_back(
                svc.objectShape(static_cast<uint16_t>(id)));
        } catch (const BbopError &) {
            shapes.push_back({}); // released: never referenced
        }
    }
    return ShapeTable(std::move(shapes));
}

std::vector<OpUse>
opsOf(const ProgramSet &set)
{
    std::set<std::pair<OpKind, size_t>> seen;
    std::vector<OpUse> out;
    for (const StreamIR &ir : set.programs)
        for (const StreamNode &n : ir.nodes) {
            if (n.dead || n.instr.opcode != BbopOpcode::Op)
                continue;
            const size_t w = set.view.shape(n.instr.src1).bits;
            if (seen.insert({n.instr.op, w}).second)
                out.push_back({n.instr.op, w});
        }
    return out;
}

size_t
bbopOpCount(const StreamIR &ir)
{
    return static_cast<size_t>(
        std::count_if(ir.nodes.begin(), ir.nodes.end(),
                      [](const StreamNode &n) {
                          return !n.dead &&
                                 n.instr.opcode == BbopOpcode::Op;
                      }));
}

double
probeCompileMs(const DramConfig &cfg, const std::vector<OpUse> &ops)
{
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        Processor p(cfg);
        const int64_t t0 = nowNs();
        for (const OpUse &o : ops)
            p.program(o.op, o.width);
        ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    return median(std::move(ms));
}

void
probeFrontEnd(Report &rep, const std::vector<ProgramSet> &sets)
{
    double validate = 0, passes = 0, lint = 0;
    size_t programs = 0;
    for (const ProgramSet &set : sets) {
        for (const StreamIR &ir : set.programs) {
            ++programs;
            validate += medianUs([&] {
                BbopValidator v(set.view);
                for (const StreamNode &n : ir.nodes)
                    v.check(n.instr);
            });
            std::vector<double> passUs;
            for (int r = 0; r < 200; ++r) {
                StreamIR copy = ir;
                const int64_t t0 = nowNs();
                runPasses(copy, PassOptions{});
                passUs.push_back(static_cast<double>(nowNs() - t0) /
                                 1e3);
            }
            passes += median(std::move(passUs));
            StreamIR opt = ir;
            runPasses(opt, PassOptions{});
            size_t diags = 0;
            lint += medianUs([&] {
                diags = analyzeStream(
                            opt, set.view,
                            AnalyzerOptions{EntryAssumption::FromView})
                            .diagnostics.size();
            });
            if (diags != 0)
                rep.mismatch("a workload program does not analyze "
                             "clean");
        }
    }
    const double n = programs > 0 ? static_cast<double>(programs) : 1.0;
    rep.add("isa.validate_us", validate / n, "us");
    rep.add("stream.passes_us", passes / n, "us");
    rep.add("analysis.lint_us", lint / n, "us");
}

void
probeReplay(Report &rep, const DramConfig &cfg,
            const std::vector<ProgramSet> &sets, size_t lanes,
            uint64_t seed)
{
    // One bare Processor holding one device's shard of every object
    // the programs touch, allocated back to back in id order so the
    // operands co-locate as the executor's do.
    Processor p(cfg);
    Rng rng(seed ^ 0x7e9a1ULL);
    std::map<std::pair<size_t, uint16_t>, Processor::VecHandle> vecs;
    for (size_t i = 0; i < sets.size(); ++i) {
        const ShapeTable &view = sets[i].view;
        for (size_t id = 0; id < view.objectCount(); ++id) {
            const BbopObjectShape s =
                view.shape(static_cast<uint16_t>(id));
            if (s.bits == 0)
                continue;
            const size_t n = std::min(lanes, s.elements);
            const auto h = p.alloc(n, s.bits);
            std::vector<uint64_t> data(n);
            const uint64_t mask =
                s.bits >= 64 ? ~0ULL : (1ULL << s.bits) - 1;
            for (auto &x : data)
                x = rng.next() & mask;
            p.store(h, data);
            vecs[{i, static_cast<uint16_t>(id)}] = h;
        }
    }
    auto runNode = [&](size_t i, const BbopInstr &in) {
        auto v = [&](uint16_t id) { return vecs.at({i, id}); };
        const size_t w = sets[i].view.shape(in.src1).bits;
        const OpSignature sig = signatureOf(in.op, w);
        if (sig.hasSel)
            p.run(in.op, v(in.dst), v(in.src1), v(in.src2), v(in.sel));
        else if (sig.numInputs == 2)
            p.run(in.op, v(in.dst), v(in.src1), v(in.src2));
        else
            p.run(in.op, v(in.dst), v(in.src1));
    };
    auto replayAll = [&](const std::function<void(size_t,
                                                  const BbopInstr &)>
                             &each) {
        for (size_t i = 0; i < sets.size(); ++i)
            for (const StreamIR &ir : sets[i].programs)
                for (const StreamNode &n : ir.nodes)
                    if (!n.dead && n.instr.opcode == BbopOpcode::Op)
                        each(i, n.instr);
    };

    // Warm: compile every uProgram and build its replay plan.
    replayAll(runNode);

    std::vector<double> perRunUs, perCmdNs;
    const int64_t stop = nowNs() + 300'000'000;
    for (int r = 0; r < 400 && (r < 5 || nowNs() < stop); ++r) {
        p.resetStats();
        double us = 0;
        size_t runs = 0;
        replayAll([&](size_t i, const BbopInstr &in) {
            const int64_t t0 = nowNs();
            runNode(i, in);
            us += static_cast<double>(nowNs() - t0) / 1e3;
            ++runs;
        });
        const DramStats s = p.computeStats();
        const double cmds = static_cast<double>(s.aaps + s.aps);
        perRunUs.push_back(us / static_cast<double>(runs ? runs : 1));
        perCmdNs.push_back(cmds > 0 ? us * 1e3 / cmds : 0.0);
    }
    rep.add("exec.run_us", median(perRunUs), "us");
    rep.add("exec.ns_per_cmd", median(perCmdNs), "ns");
}

} // namespace perfbench
