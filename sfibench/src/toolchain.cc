#include "toolchain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/stats.h"
#include "images.h"
#include "interp/interp.h"
#include "jit/codecache.h"
#include "jit/compiler.h"
#include "measure.h"
#include "runtime/instance.h"
#include "verify/checker.h"
#include "w2c/heap.h"
#include "w2c/kernels.h"
#include "wasm/validator.h"
#include "wkld/workloads.h"

namespace sfibench {

namespace {

using sfi::jit::CompilerConfig;

/** w2c problem size: 0.5-7 ms per kernel call on a current x86 core. */
constexpr uint32_t kW2cScale = 1;
/** Images per interleaved block: one of every shape. */
constexpr uint64_t kImageBlock = kImageStrata;
/** Cap on images per run: each cold image publishes ~30 KiB of code
 *  into the process-wide 256 MiB code-cache arena. */
constexpr uint64_t kMaxImages = 5000;

/**
 * Per-micro problem sizes, fixed so a native call takes about 1-12 ms
 * (the registry's bench scales run up to 0.7 s under Segue).
 */
const std::map<std::string, uint32_t> kMicroScale = {
    {"base64", 20},     {"fib2", 6},         {"gimli", 4000},
    {"heapsort", 1},    {"matrix", 6},       {"memmove", 20},
    {"nestedloop", 300}, {"nestedloop2", 40}, {"nestedloop3", 15},
    {"random", 3},      {"seqhash", 2},      {"sieve", 1},
    {"strchr", 40},     {"switch2", 1},
};

struct Micro
{
    const char* name = "";
    uint32_t scale = 1;
    std::unique_ptr<sfi::rt::Instance> native, segue;
    std::vector<double> ratios;  ///< segue / native, one per rep
};

/** One w2c policy: its heap and a timed kernel call. */
struct Policy
{
    const char* name;
    std::unique_ptr<sfi::w2c::SandboxHeap> heap;
    uint64_t (*call)(const sfi::w2c::SandboxHeap&, int, uint64_t*);
};

template <typename P>
uint64_t
callKernel(const sfi::w2c::SandboxHeap& heap, int k, uint64_t* ns)
{
    auto guard = heap.template enter<P>();
    P policy = heap.template policy<P>();
    uint64_t t0 = nowNs();
    uint64_t v = sfi::w2c::kKernels<P>[k].fn(policy, kW2cScale);
    *ns = nowNs() - t0;
    return v;
}

template <typename P>
Policy
makePolicy(const char* name)
{
    auto heap = sfi::w2c::SandboxHeap::create(
        sfi::w2c::kernelHeapBytes(kW2cScale));
    SFI_CHECK_MSG(heap.isOk(), "%s", heap.message().c_str());
    return {name, std::make_unique<sfi::w2c::SandboxHeap>(std::move(*heap)),
            &callKernel<P>};
}

std::unique_ptr<sfi::rt::Instance>
instantiate(const char* name, const sfi::wasm::Module& m,
            const CompilerConfig& cfg)
{
    auto shared = sfi::rt::SharedModule::compile(m, cfg);
    SFI_CHECK_MSG(shared.isOk(), "%s: %s", name, shared.message().c_str());
    auto inst = sfi::rt::Instance::create(*shared);
    SFI_CHECK_MSG(inst.isOk(), "%s: %s", name, inst.message().c_str());
    return std::move(*inst);
}

/**
 * Blocks each side whose reference times are pooled to scale a block's
 * first responses: about a second, which follows the host's drift over
 * tens of seconds without passing on the noise of one reference
 * measurement (adjacent ones differ by up to 20%) to all 25 images of a
 * block, and so to the p99.
 */
constexpr size_t kRefWindow = 4;

/** Image-stream counters and samples. */
struct Images
{
    /** Raw first responses (ns) of one block and its reference (us). */
    struct Block
    {
        std::vector<uint64_t> coldNs, warmNs;
        double refUs = 0;
    };
    std::vector<Block> blocks;
    uint64_t compiles = 0, compileNs = 0, verifyNs = 0, coldNs = 0;
    uint64_t warmHits = 0, warmCompiles = 0, fallbacks = 0;
    uint64_t optFuncs = 0, optNs = 0, checkNs = 0, checkBytes = 0;
};

uint64_t
interpRun(const sfi::wasm::Module& m, Report& report)
{
    auto ii = sfi::interp::Instance::instantiate(m);
    SFI_CHECK_MSG(ii.isOk(), "%s", ii.message().c_str());
    auto out = ii->callExport("run", {1});
    report.check(out.ok(), "image trapped in the interpreter");
    return out.value;
}

/** First request of a fresh tiered instance: module -> response. */
struct FirstResponse
{
    uint64_t value = 0;
    uint64_t ns = 0;
    sfi::jit::TierStatsSnapshot tier;
};

FirstResponse
firstResponse(sfi::wasm::Module m, uint64_t id, bool warm, Tracer* t)
{
    static const CompilerConfig kCfg = CompilerConfig::wamrSegue();
    FirstResponse r;
    uint64_t t0 = nowNs();
    std::shared_ptr<sfi::rt::SharedModule> shared;
    {
        ScopedSpan sp(t, warm ? "jit.compile_tiered_warm" : "jit.compile_tiered",
                      id);
        auto s = sfi::rt::SharedModule::compileTiered(std::move(m), kCfg);
        SFI_CHECK_MSG(s.isOk(), "%s", s.message().c_str());
        shared = *s;
    }
    std::unique_ptr<sfi::rt::Instance> inst;
    {
        ScopedSpan sp(t, "runtime.instance_create_owned", id);
        auto i = sfi::rt::Instance::create(shared);
        SFI_CHECK_MSG(i.isOk(), "%s", i.message().c_str());
        inst = std::move(*i);
    }
    sfi::rt::Outcome out;
    {
        ScopedSpan sp(t, warm ? "jit.warm_first_call" : "jit.cold_first_call",
                      id);
        out = inst->call("run", {1});
    }
    r.ns = nowNs() - t0;
    r.value = out.ok() ? out.value : ~out.value;
    r.tier = shared->tiered()->stats();
    return r;
}

}  // namespace

struct Toolchain::Impl
{
    std::vector<Micro> micros;
    std::vector<Policy> policies;  ///< [0] is NativePolicy
    uint64_t kernelExpected[sfi::w2c::kNumKernels] = {};
    /** ratios[k][p]: policy p / native per rep, p >= 1. */
    std::vector<std::vector<std::vector<double>>> ratios;
    Images img;

    void imageBlock(uint64_t seed, uint64_t first, Tracer* t, Report& report);
    void w2cRep(int rep, Report& report);
    void microRep(int rep, Report& report);
};

Toolchain::Toolchain(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Toolchain::~Toolchain() = default;

std::vector<sfi::wasm::Module>
microModules()
{
    std::vector<sfi::wasm::Module> out;
    for (const sfi::wkld::Workload& w : sfi::wkld::sightglass())
        out.push_back(w.make());
    return out;
}

std::unique_ptr<Toolchain>
Toolchain::create(std::vector<sfi::wasm::Module> micros)
{
    auto impl = std::make_unique<Impl>();
    const auto& registry = sfi::wkld::sightglass();
    SFI_CHECK(micros.size() == registry.size());
    for (size_t i = 0; i < micros.size(); i++) {
        Micro m;
        m.name = registry[i].name;
        auto it = kMicroScale.find(m.name);
        SFI_CHECK_MSG(it != kMicroScale.end(), "no scale for micro %s",
                      m.name);
        m.scale = it->second;
        m.native = instantiate(m.name, micros[i], CompilerConfig::native());
        m.segue = instantiate(m.name, micros[i], CompilerConfig::wamrSegue());
        impl->micros.push_back(std::move(m));
    }
    impl->policies.push_back(makePolicy<sfi::w2c::NativePolicy>("native"));
    impl->policies.push_back(makePolicy<sfi::w2c::BaseAddPolicy>("basereg"));
    impl->policies.push_back(makePolicy<sfi::w2c::SeguePolicy>("segue"));
    impl->policies.push_back(makePolicy<sfi::w2c::BoundsPolicy>("bounds"));
    impl->policies.push_back(
        makePolicy<sfi::w2c::SegueBoundsPolicy>("segue_bounds"));
    impl->ratios.assign(
        sfi::w2c::kNumKernels,
        std::vector<std::vector<double>>(impl->policies.size()));
    return std::unique_ptr<Toolchain>(new Toolchain(std::move(impl)));
}

void
Toolchain::prepare(Report& report)
{
    for (Micro& m : impl_->micros) {
        auto a = m.native->call("run", {m.scale});
        auto b = m.segue->call("run", {m.scale});
        report.check(a.ok() && b.ok(), "micro trapped");
        if (b.value != a.value)
            report.mismatch("micro %s: segue %llx != native %llx", m.name,
                            (unsigned long long)b.value,
                            (unsigned long long)a.value);
    }
    uint64_t ns = 0;
    for (int k = 0; k < sfi::w2c::kNumKernels; k++)
        impl_->kernelExpected[k] =
            impl_->policies[0].call(*impl_->policies[0].heap, k, &ns);
}

void
Toolchain::Impl::imageBlock(uint64_t seed, uint64_t first, Tracer* t,
                            Report& report)
{
    std::vector<sfi::wasm::Module> modules;
    std::vector<uint64_t> expected;
    for (uint64_t i = first; i < first + kImageBlock; i++) {
        modules.push_back(buildImage(imageSpec(seed, i)));
        expected.push_back(interpRun(modules.back(), report));
    }
    // Cold: this process has never seen these images. Every first
    // response is scaled by the reference task timed around the block.
    const double ref_before = referenceUs();
    Images::Block block;
    uint64_t wrong = 0;
    for (uint64_t j = 0; j < kImageBlock; j++) {
        const uint64_t id = first + j;
        if (t) {
            ScopedSpan sp(t, "wasm.validate", id);
            report.check(sfi::wasm::validate(modules[j]).isOk(),
                         "generated image fails validation");
        }
        FirstResponse r = firstResponse(modules[j], id, false, t);
        if (r.value != expected[j]) {
            wrong++;
            report.mismatch("cold image %llu: %llx != interp %llx",
                            (unsigned long long)id,
                            (unsigned long long)r.value,
                            (unsigned long long)expected[j]);
        }
        report.check(r.tier.baselineCompiles > 0,
                     "cold image compiled nothing");
        block.coldNs.push_back(r.ns);
        img.coldNs += r.ns;
        img.compiles += r.tier.baselineCompiles;
        img.compileNs += r.tier.compileNs;
        img.verifyNs += r.tier.cacheFillVerifyNs;
        img.fallbacks += r.tier.interpFallbacks;
        if (t && id % 8 == 0) {
            // The verifier timed from outside on a monolithic optimized
            // compile (the optimizer tier's cost per function with it).
            uint64_t c0 = nowNs();
            auto cm = sfi::jit::compile(modules[j], CompilerConfig::wamrSegue());
            uint64_t c1 = nowNs();
            SFI_CHECK_MSG(cm.isOk(), "%s", cm.message().c_str());
            sfi::verify::Report vr;
            {
                ScopedSpan sp(t, "verify.check_module", id);
                vr = sfi::verify::checkModule(*cm);
            }
            img.checkNs += nowNs() - c1;
            report.check(vr.ok(), "compiled image fails verification");
            img.optNs += c1 - c0;
            img.optFuncs += modules[j].functions.size();
            img.checkBytes += cm->code.size();
        }
    }
    // Warm: the same images again, served from the shared code cache.
    for (uint64_t j = 0; j < kImageBlock; j++) {
        FirstResponse r = firstResponse(std::move(modules[j]), first + j,
                                        true, t);
        if (r.value != expected[j]) {
            wrong++;
            report.mismatch("warm image %llu: %llx != interp %llx",
                            (unsigned long long)(first + j),
                            (unsigned long long)r.value,
                            (unsigned long long)expected[j]);
        }
        report.check(r.tier.baselineCompiles == 0, "warm image compiled");
        block.warmNs.push_back(r.ns);
        img.warmHits += r.tier.cacheHits;
        img.warmCompiles += r.tier.baselineCompiles;
        img.fallbacks += r.tier.interpFallbacks;
    }
    block.refUs = std::min(ref_before, referenceUs());
    img.blocks.push_back(std::move(block));
    report.ops(2 * kImageBlock, wrong);
}

void
Toolchain::Impl::w2cRep(int rep, Report& report)
{
    const size_t np = policies.size();
    uint64_t wrong = 0;
    for (int k = 0; k < sfi::w2c::kNumKernels; k++) {
        std::vector<double> ns(np);
        // Rotate the policy order every rep so no policy always runs
        // right after the same neighbour.
        for (size_t i = 0; i < np; i++) {
            size_t p = (i + size_t(rep)) % np;
            uint64_t t = 0;
            uint64_t v = policies[p].call(*policies[p].heap, k, &t);
            ns[p] = double(t);
            if (v != kernelExpected[k]) {
                wrong++;
                report.mismatch("w2c %s/%s: checksum %llx != native %llx",
                                sfi::w2c::kKernels<sfi::w2c::NativePolicy>[k]
                                    .ours,
                                policies[p].name, (unsigned long long)v,
                                (unsigned long long)kernelExpected[k]);
            }
        }
        for (size_t p = 1; p < np; p++)
            ratios[size_t(k)][p].push_back(ns[p] / ns[0]);
    }
    report.ops(uint64_t(sfi::w2c::kNumKernels) * np, wrong);
}

void
Toolchain::Impl::microRep(int rep, Report& report)
{
    uint64_t wrong = 0;
    for (Micro& m : micros) {
        double ns[2] = {0, 0};
        sfi::rt::Outcome out[2];
        for (int i = 0; i < 2; i++) {
            int which = (i + rep) % 2;
            sfi::rt::Instance& inst = which ? *m.segue : *m.native;
            uint64_t t0 = nowNs();
            out[which] = inst.call("run", {m.scale});
            ns[which] = double(nowNs() - t0);
        }
        // Some micros keep state across calls, so the two instances are
        // compared call for call rather than against a fixed value.
        if (!out[0].ok() || !out[1].ok() || out[0].value != out[1].value) {
            wrong++;
            report.mismatch("micro %s: segue %llx != native %llx", m.name,
                            (unsigned long long)out[1].value,
                            (unsigned long long)out[0].value);
        }
        m.ratios.push_back(ns[1] / ns[0]);
    }
    report.ops(2 * micros.size(), wrong);
}

void
Toolchain::run(uint64_t seed, double seconds, uint64_t images, Tracer* tracer,
               Report& report)
{
    Impl& d = *impl_;
    const sfi::jit::CodeCache::Stats cache0 =
        sfi::jit::CodeCache::instance().stats();
    pinToOneCpu();
    const uint64_t start = nowNs();
    const uint64_t deadline = start + uint64_t(seconds * 1e9);
    uint64_t next_image = 0;
    int rep = 0;
    // One round: four image blocks, then one repetition of every
    // kernel and micro, so each phase spans the whole run.
    const uint64_t blocks_per_round = 4;
    SFI_CHECK(images <= kMaxImages);
    while (next_image < images || nowNs() < deadline) {
        for (uint64_t b = 0; b < blocks_per_round && next_image < images; b++) {
            d.imageBlock(seed, next_image, tracer, report);
            next_image += kImageBlock;
        }
        d.w2cRep(rep, report);
        d.microRep(rep, report);
        rep++;
    }
    const double over = double(nowNs() - deadline) / 1e9;
    if (over > 0.5)
        std::fprintf(stderr,
                     "sfibench: the %llu images overran the toolchain "
                     "share by %.1f s\n",
                     (unsigned long long)images, over);
    unpin();
    const sfi::jit::CodeCache::Stats cache1 =
        sfi::jit::CodeCache::instance().stats();
    // First responses at reference speed (us), each block scaled by the
    // median reference time of the blocks around it.
    sfi::RunningStat cold, warm;
    const std::vector<Images::Block>& blocks = d.img.blocks;
    for (size_t b = 0; b < blocks.size(); b++) {
        std::vector<double> refs;
        for (size_t i = b > kRefWindow ? b - kRefWindow : 0;
             i < std::min(blocks.size(), b + kRefWindow + 1); i++)
            refs.push_back(blocks[i].refUs);
        const double scale = kRefNominalUs / median(refs);
        for (uint64_t ns : blocks[b].coldNs)
            cold.add(double(ns) / 1e3 * scale);
        for (uint64_t ns : blocks[b].warmNs)
            warm.add(double(ns) / 1e3 * scale);
    }
    report.samples("images", cold.count());
    report.samples("kernel_reps", uint64_t(rep));
    report.check(d.img.fallbacks == 0, "interpreter fallbacks > 0");

    std::vector<double> by_policy[5];
    for (int k = 0; k < sfi::w2c::kNumKernels; k++) {
        for (size_t p = 1; p < d.policies.size(); p++) {
            double norm = median(d.ratios[size_t(k)][p]);
            by_policy[p].push_back(norm);
            if (tracer)
                report.metric(
                    std::string("w2c.") +
                        sfi::w2c::kKernels<sfi::w2c::NativePolicy>[k].ours +
                        "." + d.policies[p].name + "_norm",
                    norm, "x");
        }
    }
    std::vector<double> micro_norms;
    for (Micro& m : d.micros) {
        micro_norms.push_back(median(m.ratios));
        if (tracer)
            report.metric(std::string("jit.") + m.name + ".segue_norm",
                          micro_norms.back(), "x");
    }

    if (!tracer) {
        report.metric("cold_first_response_p50_us", cold.percentile(50), "us");
        report.metric("cold_first_response_p99_us", cold.percentile(99), "us");
        report.metric("warm_first_response_p50_us", warm.percentile(50), "us");
        report.metric("warm_first_response_p99_us", warm.percentile(99), "us");
        for (size_t p = 1; p < d.policies.size(); p++)
            report.metric(std::string("w2c_") + d.policies[p].name + "_norm",
                          sfi::geomean(by_policy[p]), "x");
        report.metric("jit_segue_norm", sfi::geomean(micro_norms), "x");
        return;
    }

    std::map<std::string, std::vector<double>> self_us;
    std::vector<uint64_t> self = selfTimes(tracer->spans());
    for (size_t i = 0; i < self.size(); i++)
        self_us[tracer->spans()[i].name].push_back(double(self[i]) / 1e3);
    auto med = [&](const char* name) { return median(self_us[name]); };
    const double funcs = double(std::max<uint64_t>(d.img.compiles, 1));
    report.metric("wasm.validate_us", med("wasm.validate"), "us");
    report.metric("jit.compile_tiered_us", med("jit.compile_tiered"), "us");
    report.metric("jit.cold_first_call_us", med("jit.cold_first_call"), "us");
    report.metric("jit.warm_first_call_us", med("jit.warm_first_call"), "us");
    report.metric("runtime.instance_create_owned_us",
                  med("runtime.instance_create_owned"), "us");
    report.metric("jit.baseline_compile_us_per_func",
                  double(d.img.compileNs - std::min(d.img.compileNs,
                                                    d.img.verifyNs)) /
                      1e3 / funcs,
                  "us");
    report.metric("jit.opt_compile_us_per_func",
                  d.img.optFuncs ? double(d.img.optNs) / 1e3 /
                                       double(d.img.optFuncs)
                                 : 0,
                  "us");
    report.metric("jit.code_bytes_per_func",
                  double(cache1.publishedBytes - cache0.publishedBytes) / funcs,
                  "bytes");
    const uint64_t warm_all = d.img.warmHits + d.img.warmCompiles;
    report.metric("jit.warm_cache_hit_ratio",
                  warm_all ? double(d.img.warmHits) / double(warm_all) : 0,
                  "ratio");
    report.metric("verify.fill_us_per_func",
                  double(d.img.verifyNs) / 1e3 / funcs, "us");
    report.metric("verify.check_module_us_per_kib",
                  d.img.checkBytes ? double(d.img.checkNs) / 1e3 /
                                         (double(d.img.checkBytes) / 1024.0)
                                   : 0,
                  "us");
    report.metric("verify.cold_share",
                  d.img.coldNs ? double(d.img.verifyNs) / double(d.img.coldNs)
                               : 0,
                  "ratio");
    report.metric("interp.fallbacks", double(d.img.fallbacks), "count");
}

}  // namespace sfibench
