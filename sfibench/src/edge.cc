#include "edge.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>

#include "base/rng.h"
#include "faas/fiber.h"
#include "faas/loadgen.h"
#include "images.h"
#include "interp/interp.h"
#include "measure.h"
#include "mpk/keyring.h"
#include "pool/pool.h"
#include "runtime/instance.h"
#include "runtime/signals.h"
#include "seg/seg.h"

namespace sfibench {

using sfi::faas::FaasHost;

namespace {

/** Bisection rounds of one knee search. */
constexpr int kKneeSteps = 6;
/**
 * Shares of a traced run's host time for the knee search and for the
 * counter blocks; the idle tail (kIdleRequests at kIdleRps, ~1 s), the
 * idle floor (~1 s) and the replay fit in the rest.
 */
constexpr double kKneeShare = 0.45, kCounterShare = 0.25;
/** Low fixed rate pricing the idle-sleep wake-up tail (rps). */
constexpr double kIdleRps = 1000;
constexpr uint64_t kIdleRequests = 1000;
/** The idle floor: a few arrivals ~1/4 s apart, so ~1 s with none. */
constexpr double kFloorRps = 4;
constexpr uint64_t kFloorRequests = 4;

sfi::jit::CompilerConfig
hostConfig()
{
    // What FaasHost::create compiles with: the default strategy plus
    // the epoch checks it forces on.
    sfi::jit::CompilerConfig cfg = FaasHost::Options().config;
    cfg.epochChecks = true;
    return cfg;
}

}  // namespace

FaasHost::Options
hostOptions(const EdgeConfig& cfg)
{
    FaasHost::Options o;
    o.maxConcurrent = cfg.slots;
    o.workerThreads = cfg.workers;
    o.ioDelayMeanMs = cfg.ioMeanMs;
    o.epochUs = cfg.epochUs;
    o.keyRecycling = cfg.keyRecycling;
    o.admission = cfg.admission;
    o.admissionQueueDepth = cfg.queueDepth;
    return o;
}

struct EdgeOracle::Impl
{
    std::shared_ptr<const sfi::rt::SharedModule> shared;
    std::unique_ptr<sfi::rt::Instance> inst;
    /** prefix[n] = expected checksum of ids 0..n-1. */
    std::vector<uint64_t> prefix{0};
    Report* report = nullptr;
};

EdgeOracle::EdgeOracle(const char* handler, uint64_t seed, Report& report)
    : impl_(std::make_unique<Impl>())
{
    impl_->report = &report;
    sfi::wasm::Module module = edgeHandler(handler);
    std::map<std::string, sfi::rt::HostFn> jit_io{
        {"io_wait",
         [](uint64_t*, size_t) { return sfi::rt::HostOutcome{}; }}};
    auto shared = sfi::rt::SharedModule::compile(module, hostConfig());
    SFI_CHECK_MSG(shared.isOk(), "%s", shared.message().c_str());
    impl_->shared = *shared;
    auto inst = sfi::rt::Instance::create(impl_->shared, jit_io);
    SFI_CHECK_MSG(inst.isOk(), "%s", inst.message().c_str());
    impl_->inst = std::move(*inst);

    // The interpreter is the independent oracle: a seeded sample of
    // ids, each on a fresh instance as the host serves them, must get
    // the response the direct JIT calls give.
    sfi::Rng rng(seed ^ 0x0AC1E5EEDull);
    for (int i = 0; i < 24; i++) {
        uint64_t id = rng.below(1u << 20);
        auto ii = sfi::interp::Instance::instantiate(
            module, {{"io_wait", [](uint64_t*, size_t) {
                          return sfi::interp::HostOutcome{};
                      }}});
        SFI_CHECK_MSG(ii.isOk(), "%s", ii.message().c_str());
        auto want = ii->callExport("handle", {id});
        auto fresh = sfi::rt::Instance::create(impl_->shared, jit_io);
        SFI_CHECK(fresh.isOk());
        auto got = (*fresh)->call("handle", {id});
        if (!want.ok() || !got.ok() || want.value != got.value) {
            report.mismatch("%s: handle(%llu) jit %llx interp %llx", handler,
                            (unsigned long long)id,
                            (unsigned long long)got.value,
                            (unsigned long long)want.value);
        }
    }
}

EdgeOracle::~EdgeOracle() = default;

uint64_t
EdgeOracle::checksum(uint64_t n)
{
    auto& p = impl_->prefix;
    while (p.size() <= n) {
        uint64_t id = p.size() - 1;
        auto out = impl_->inst->call("handle", {id & 0xffffffffu});
        if (!out.ok())
            impl_->report->mismatch("oracle call handle(%llu) trapped",
                                    (unsigned long long)id);
        p.push_back(p.back() ^ (out.value + id));
    }
    return p[n];
}

namespace {

/** One open-loop batch of ids 0..n-1, checked. */
struct Served
{
    FaasHost::Stats st;
    double offeredRps = 0;
    uint64_t refused = 0;
};

Served
serve(FaasHost& host, const EdgeConfig& cfg, EdgeOracle& oracle, uint64_t n,
      double rate, uint64_t seed, Report& report)
{
    sfi::faas::LoadGenConfig lg;
    lg.ratePerSec = rate;
    lg.seed = seed;
    std::vector<uint64_t> sched = sfi::faas::LoadGen::schedule(lg, n);
    Served s;
    s.offeredRps =
        sched.back() > 0 ? double(n) / (double(sched.back()) / 1e9) : rate;
    // A one-worker host runs on this thread: keep it on one CPU. Worker
    // threads of a multi-worker host inherit the full mask.
    if (cfg.workers == 1)
        pinToOneCpu();
    auto r = host.runOpenLoop(n, lg);
    unpin();
    if (!r.isOk()) {
        report.mismatch("runOpenLoop failed: %s", r.message().c_str());
        return s;
    }
    s.st = std::move(*r);
    s.refused = s.st.rejected + s.st.shedRequests;
    if (s.st.completed + s.refused != n)
        report.mismatch("conservation: completed %llu + refused %llu != "
                        "offered %llu",
                        (unsigned long long)s.st.completed,
                        (unsigned long long)s.refused,
                        (unsigned long long)n);
    // Refused ids are unknown from outside, so only a run that served
    // every id can be checked against the oracle.
    if (s.refused == 0 && s.st.checksum != oracle.checksum(n))
        report.mismatch("host checksum %llx != oracle %llx over %llu ids",
                        (unsigned long long)s.st.checksum,
                        (unsigned long long)oracle.checksum(n),
                        (unsigned long long)n);
    return s;
}

/** A p99 that stays printable when the misses own the tail. */
double
finite(double us)
{
    return std::isfinite(us) ? us : 1e7;
}

}  // namespace

namespace {

/**
 * faas.knee_rps: the median of three knee searches, in rps, on a host
 * of its own with the program's default admission queue depth. The
 * workload's deeper queues only keep VM stalls from dropping requests
 * at the nominal rate; under load the default depth is what sheds, and
 * the knee is where that shows.
 */
double
kneeRps(const EdgeConfig& cfg, EdgeOracle& oracle, uint64_t seed,
        double knee_sec, Report& report)
{
    FaasHost::Options opts = hostOptions(cfg);
    opts.admissionQueueDepth = FaasHost::Options().admissionQueueDepth;
    auto created = FaasHost::create(edgeHandler(cfg.handler), opts);
    SFI_CHECK_MSG(created.isOk(), "%s", created.message().c_str());
    FaasHost& host = **created;

    // Three independent searches, each over the bisection rounds plus a
    // few confirmations; the knee is their median, so one search
    // disturbed throughout by a noisy neighbour does not set it.
    const int searches = 3;
    const double probe_sec = knee_sec / searches / double(kKneeSteps + 3);
    uint64_t probe_seed = seed * 1000 + 1;
    size_t probes = 0;
    std::vector<double> knees;
    for (int k = 0; k < searches; k++) {
        std::vector<double> refs;
        Knee knee = findKnee(cfg.kneeLo, cfg.kneeHi, kKneeSteps,
                             [&](double rate) {
            uint64_t n = std::max<uint64_t>(1000, uint64_t(rate * probe_sec));
            Served s = serve(host, cfg, oracle, n, rate, probe_seed++, report);
            Probe p;
            p.offeredRps = s.offeredRps;
            p.p99Us =
                percentileWithMisses(s.st.latencyTotalNs, s.refused, 99) / 1e3;
            p.pass = p.p99Us <= cfg.limitUs &&
                     s.st.throughputRps >= cfg.keepUp * p.offeredRps;
            refs.push_back(referenceUs());
            return p;
        });
        // Capacity tracks this host's drifting speed, so each search's
        // knee is read at reference speed (see referenceUs), with the
        // median reference time over its probes: raw knees of runs
        // minutes apart spread 25-40 krps.
        knees.push_back(knee.rps * median(refs) / kRefNominalUs);
        probes += knee.probes.size();
        std::fprintf(stderr, "sfibench: knee probes (rps:p99 us):");
        for (const Probe& p : knee.probes)
            std::fprintf(stderr, " %.0f:%.0f%s", p.offeredRps,
                         finite(p.p99Us), p.pass ? "" : "x");
        std::fprintf(stderr, "%s\n",
                     knee.censoredLow    ? " (censored low)"
                     : knee.censoredHigh ? " (censored high)"
                                         : "");
    }
    report.samples("knee_probes", probes);
    return median(knees);
}

}  // namespace

double
measureCpuPerRequest(FaasHost& host, const EdgeConfig& cfg,
                     EdgeOracle& oracle, uint64_t seed, double nominal_sec,
                     Report& report)
{

    // Short fixed-rate blocks, each at reference speed (see
    // referenceUs) as timed around it.
    const uint64_t n = 1000;
    const int blocks =
        std::max(16, int(cfg.nominalRps * nominal_sec / double(n)));
    double cpu = 0;
    uint64_t served = 0;
    double ref = referenceUs();
    for (int b = 0; b < blocks; b++) {
        Usage u0 = Usage::now();
        Served s = serve(host, cfg, oracle, n, cfg.nominalRps,
                         seed * 1000 + 500 + uint64_t(b), report);
        Usage du = Usage::now() - u0;
        double ref_after = referenceUs();
        cpu += du.cpuSec() * kRefNominalUs / std::min(ref, ref_after);
        ref = ref_after;
        served += s.st.completed;
        report.ops(n, s.refused);
    }
    report.samples("nominal_requests", uint64_t(blocks) * n);
    return served ? cpu * 1e6 / double(served) : 0;
}

// ---------------------------------------------------------------------
// Traced replay of the host's per-request sequence.

namespace {

/** Pool, keys, module and epoch timer built the way the host builds
 *  its own (members destroy pool -> ring -> mpk, as the host does). */
struct ReplayWorld
{
    std::shared_ptr<const sfi::rt::SharedModule> module;
    std::unique_ptr<sfi::mpk::System> mpk;
    std::unique_ptr<sfi::mpk::KeyRing> ring;
    std::unique_ptr<sfi::pool::MemoryPool> pool;
    std::unique_ptr<sfi::faas::EpochTimer> timer;
    uint32_t minPages = 1, maxPages = 1;

    explicit ReplayWorld(const EdgeConfig& cfg)
    {
        FaasHost::Options o = hostOptions(cfg);
        auto shared = sfi::rt::SharedModule::compile(edgeHandler(cfg.handler),
                                                     hostConfig());
        SFI_CHECK_MSG(shared.isOk(), "%s", shared.message().c_str());
        module = *shared;
        mpk = sfi::mpk::makeEmulated();
        sfi::pool::MemoryPool::Options popt;
        popt.config.numSlots = uint64_t(o.maxConcurrent);
        popt.config.maxMemoryBytes = o.slotBytes;
        popt.config.guardBytes = 8 * o.slotBytes;
        popt.config.stripingEnabled = o.colorguard;
        popt.mpk = mpk.get();
        if (o.keyRecycling) {
            sfi::mpk::KeyRing::Options ropt;
            ropt.system = mpk.get();
            ring = std::make_unique<sfi::mpk::KeyRing>(ropt);
            popt.keyRing = ring.get();
        }
        popt.shards = uint32_t(o.workerThreads);
        popt.warmSlotsPerShard =
            o.warmAffinity
                ? uint32_t(std::max(1, o.maxConcurrent / o.workerThreads))
                : 0;
        popt.deferredDecommit = o.deferredDecommit;
        auto p = sfi::pool::MemoryPool::create(std::move(popt));
        SFI_CHECK_MSG(p.isOk(), "%s", p.message().c_str());
        pool = std::make_unique<sfi::pool::MemoryPool>(std::move(*p));
        timer = std::make_unique<sfi::faas::EpochTimer>(o.epochUs);
        const sfi::wasm::Module& m = module->module();
        minPages = std::max<uint32_t>(m.memory.minPages, 1);
        maxPages = uint32_t(std::min<uint64_t>(
            m.memory.maxPages, o.slotBytes / sfi::kWasmPageSize));
    }
};

struct ReplayWorker;

struct ReplaySlot
{
    ReplayWorker* w = nullptr;
    sfi::pool::Slot ps;
    std::unique_ptr<sfi::faas::Fiber> fiber;
    std::unique_ptr<sfi::rt::Instance> inst;
    uint64_t id = 0;
    bool active = false;
    sfi::rt::ActiveExecution* savedExec = nullptr;
    uint64_t savedGs = 0;
    sfi::mpk::Pkru savedPkru{};
    int32_t guestSpan = -1;
    uint64_t yieldNs = 0, backNs = 0, resumeNs = 0;
};

struct ReplayWorker
{
    ReplayWorld* world = nullptr;
    Tracer* tracer = nullptr;
    sfi::mpk::KeyRing::Participant* participant = nullptr;
    std::vector<std::unique_ptr<ReplaySlot>> slots;
    uint64_t next = 0, end = 0;
    uint64_t checksum = 0;
    uint64_t completed = 0;
    /** Per-request counts the host also reports (Stats). */
    uint64_t creates = 0, entries = 0, ioWaits = 0;
    bool failed = false;
};

/** The host's yield-from-guest sequence (IO wait or epoch), spanned. */
void
park(ReplaySlot& s)
{
    ReplayWorker& w = *s.w;
    Tracer* t = w.tracer;
    sfi::mpk::System& mpk = *w.world->mpk;
    int32_t p = t ? t->begin("faas.park", s.id, s.guestSpan) : -1;
    s.savedExec = sfi::rt::setActiveExecution(nullptr);
    s.savedGs = sfi::seg::getGsBase();
    s.savedPkru = mpk.readPkru();
    {
        ScopedSpan sp(t, "mpk.write_pkru", s.id, p);
        mpk.writePkru(sfi::mpk::Pkru::allowAll());
    }
    if (w.participant)
        w.participant->fence();
    if (t)
        t->end(p);

    s.yieldNs = nowNs();
    s.fiber->yield();
    uint64_t back = nowNs();
    if (t) {
        // The parked interval belongs to the scheduler and the other
        // fibers; as a child of the guest span it is kept out of the
        // guest's self time. Its two context switches nest inside it.
        int32_t pk = t->record("faas.parked", s.yieldNs, back, s.id,
                               s.guestSpan);
        t->record("faas.fiber_switch", s.yieldNs, s.backNs, s.id, pk);
        t->record("faas.fiber_switch", s.resumeNs, back, s.id, pk);
    }

    int32_t u = t ? t->begin("faas.unpark", s.id, s.guestSpan) : -1;
    {
        ScopedSpan sp(t, "mpk.write_pkru", s.id, u);
        mpk.writePkru(s.savedPkru);
    }
    {
        ScopedSpan sp(t, "seg.set_gs", s.id, u);
        sfi::seg::setGsBase(s.savedGs);
    }
    sfi::rt::setActiveExecution(s.savedExec);
    if (t)
        t->end(u);
}

/** The host's requestBody: pooled instance, one direct call of handle. */
void
requestBody(ReplaySlot& s)
{
    ReplayWorker& w = *s.w;
    ReplayWorld& world = *w.world;
    Tracer* t = w.tracer;
    sfi::rt::Instance::Options iopt;
    iopt.memoryView =
        world.pool->memoryView(s.ps, world.minPages, world.maxPages);
    iopt.mpkSystem = world.mpk.get();
    iopt.pkey = s.ps.pkey;
    {
        std::unique_ptr<sfi::rt::Instance> inst;
        {
            ScopedSpan sp(t, "runtime.instance_create", s.id);
            auto r = sfi::rt::Instance::create(
                world.module,
                {{"io_wait",
                  [&s](uint64_t*, size_t) {
                      s.w->ioWaits++;
                      park(s);
                      return sfi::rt::HostOutcome{};
                  }}},
                std::move(iopt));
            if (!r.isOk()) {
                w.failed = true;
                return;
            }
            inst = std::move(*r);
            w.creates++;
        }
        ScopedSpan sp(t, "runtime.instance_destroy", s.id);
        s.inst = std::move(inst);
    }
    s.inst->setEpoch(world.timer->counter(), world.timer->now());
    s.inst->setEpochCallback([&s, &world] {
        park(s);
        s.inst->setEpochDeadline(world.timer->now());
    });
    sfi::rt::Instance::DirectEntry handle = s.inst->directEntry("handle");
    sfi::rt::Outcome out;
    uint64_t t0 = nowNs(), t1 = 0, t2 = 0;
    {
        auto scope = s.inst->enter();
        t1 = nowNs();
        s.guestSpan = t ? t->begin("runtime.guest_handle", s.id, -1) : -1;
        out = handle.call({s.id & 0xffffffffu});
        if (t)
            t->end(s.guestSpan);
        t2 = nowNs();
    }
    uint64_t t3 = nowNs();
    if (t) {
        t->record("runtime.enter", t0, t1, s.id, -1);
        t->record("runtime.exit", t2, t3, s.id, -1);
    }
    if (!out.ok()) {
        w.failed = true;
        return;
    }
    w.entries += s.inst->transitions();
    w.checksum ^= out.value + s.id;
    w.completed++;
}

/** The host's scheduling round, closed-loop over [next, end). */
void
replayWorker(ReplayWorker& w, int num_slots)
{
    ReplayWorld& world = *w.world;
    Tracer* t = w.tracer;
    if (world.ring)
        w.participant = world.ring->registerParticipant();
    for (int i = 0; i < num_slots; i++) {
        auto s = std::make_unique<ReplaySlot>();
        s->w = &w;
        auto ps = world.pool->allocate(w.participant);
        if (!ps.isOk()) {
            w.failed = true;
            break;
        }
        s->ps = *ps;
        w.slots.push_back(std::move(s));
    }
    for (bool any = true; any && !w.failed;) {
        any = false;
        if (w.participant)
            w.participant->fence();
        for (auto& sp : w.slots) {
            ReplaySlot& s = *sp;
            if (!s.active) {
                if (w.next >= w.end)
                    continue;
                s.id = w.next++;
                s.active = true;
                uint64_t touched =
                    s.inst ? s.inst->memory().touchedBytes() : 0;
                {
                    ScopedSpan span(t, "pool.free", s.id);
                    if (!world.pool->free(s.ps, touched).isOk())
                        w.failed = true;
                }
                {
                    ScopedSpan span(t, "pool.allocate", s.id);
                    auto ps = world.pool->allocate(w.participant);
                    if (!ps.isOk()) {
                        w.failed = true;
                        return;
                    }
                    s.ps = *ps;
                }
                ScopedSpan span(t, "faas.fiber_create", s.id);
                auto f = sfi::faas::Fiber::create([&s] { requestBody(s); });
                if (!f.isOk()) {
                    w.failed = true;
                    return;
                }
                s.fiber = std::move(*f);
            }
            any = true;
            s.resumeNs = nowNs();
            s.fiber->resume();
            if (!s.fiber->finished()) {
                s.backNs = nowNs();
                continue;
            }
            {
                ScopedSpan span(t, "faas.fiber_destroy", s.id);
                s.fiber.reset();
            }
            s.active = false;
        }
    }
    for (auto& s : w.slots) {
        uint64_t touched = s->inst ? s->inst->memory().touchedBytes() : 0;
        s->inst.reset();
        if (!world.pool->free(s->ps, touched).isOk())
            w.failed = true;
    }
    w.slots.clear();
    if (w.participant)
        world.ring->unregisterParticipant(w.participant);
}

/**
 * Per-request counts that the host's Stats and the replay both expose
 * and that neither the closed loop nor timing changes: they tie the
 * replay to the host's own sequence.
 */
struct SequenceCounts
{
    double poolAllocs = 0, instanceCreates = 0, sandboxEntries = 0,
           ioWaits = 0;
};

struct ReplayRun
{
    double cpuSec = 0;
    SequenceCounts perReq;
};

/** Runs @p n requests over the workload's workers. */
ReplayRun
replay(ReplayWorld& world, const EdgeConfig& cfg, uint64_t n,
       const std::vector<Tracer*>& tracers, EdgeOracle& oracle,
       Report& report)
{
    std::vector<ReplayWorker> workers(size_t(cfg.workers));
    const int per_worker_slots = cfg.slots / cfg.workers;
    for (int i = 0; i < cfg.workers; i++) {
        workers[size_t(i)].world = &world;
        workers[size_t(i)].tracer = tracers.empty() ? nullptr : tracers[size_t(i)];
        workers[size_t(i)].next = n * uint64_t(i) / uint64_t(cfg.workers);
        workers[size_t(i)].end = n * uint64_t(i + 1) / uint64_t(cfg.workers);
    }
    const uint64_t allocs0 = world.pool->stats().allocations;
    Usage u0 = Usage::now();
    if (cfg.workers == 1) {
        pinToOneCpu();
        replayWorker(workers[0], per_worker_slots);
        unpin();
    } else {
        std::vector<std::thread> threads;
        for (auto& w : workers)
            threads.emplace_back(
                [&w, per_worker_slots] { replayWorker(w, per_worker_slots); });
        for (auto& th : threads)
            th.join();
    }
    ReplayRun run;
    run.cpuSec = (Usage::now() - u0).cpuSec();
    uint64_t checksum = 0, completed = 0, creates = 0, entries = 0, io = 0;
    for (auto& w : workers) {
        checksum ^= w.checksum;
        completed += w.completed;
        creates += w.creates;
        entries += w.entries;
        io += w.ioWaits;
        report.check(!w.failed, "replay request failed");
    }
    report.check(completed == n, "replay did not serve every request");
    if (checksum != oracle.checksum(n))
        report.mismatch("replay checksum %llx != oracle %llx",
                        (unsigned long long)checksum,
                        (unsigned long long)oracle.checksum(n));
    report.ops(n, n - std::min(n, completed));
    // Every worker first checks out its slots, as the host does.
    const uint64_t allocs = world.pool->stats().allocations - allocs0 -
                            uint64_t(per_worker_slots * cfg.workers);
    const double req = double(std::max<uint64_t>(completed, 1));
    run.perReq = {double(allocs) / req, double(creates) / req,
                  double(entries) / req, double(io) / req};
    return run;
}

/**
 * Counts of @p host and @p replay that differ by more than 1%: each
 * means the host's per-request sequence changed and the replay no
 * longer follows it. Prints both sides of every difference.
 */
int
divergence(const SequenceCounts& host, const SequenceCounts& replay)
{
    const std::pair<const char*, double SequenceCounts::*> fields[] = {
        {"pool allocations", &SequenceCounts::poolAllocs},
        {"instance creations", &SequenceCounts::instanceCreates},
        {"sandbox entries", &SequenceCounts::sandboxEntries},
        {"io waits", &SequenceCounts::ioWaits},
    };
    int differ = 0;
    for (const auto& [what, field] : fields) {
        const double a = host.*field, b = replay.*field;
        if (std::fabs(a - b) > 0.01 * std::max(std::fabs(a), std::fabs(b))) {
            differ++;
            std::fprintf(stderr,
                         "sfibench: replay diverges from the host: %s per "
                         "request %.4f (host) vs %.4f (replay)\n",
                         what, a, b);
        }
    }
    return differ;
}

double
medianOf(const std::map<std::string, std::vector<double>>& by,
         const char* name)
{
    auto it = by.find(name);
    return it == by.end() ? 0 : median(it->second);
}

}  // namespace

void
traceEdge(FaasHost& host, const EdgeConfig& cfg, EdgeOracle& oracle,
          uint64_t seed, double seconds, Report& report,
          std::vector<std::unique_ptr<Tracer>>& tracers)
{
    // On this shared VM the knee of runs minutes apart spread up to 0.3
    // of its median, so it is a per-layer figure.
    report.metric("faas.knee_rps",
                  kneeRps(cfg, oracle, seed, kKneeShare * seconds, report),
                  "1/s");

    // Host counters over fixed-rate blocks (untraced host, as measured).
    const int blocks = 4;
    const uint64_t n = std::max<uint64_t>(
        1000, uint64_t(cfg.nominalRps * kCounterShare * seconds / blocks));
    FaasHost::Stats sum;
    uint64_t offered = 0, refused = 0, max_depth = 0;
    sfi::pool::MemoryPool::Stats p0 = host.memoryPool().stats();
    Usage u0 = Usage::now();
    for (int b = 0; b < blocks; b++) {
        Served s = serve(host, cfg, oracle, n, cfg.nominalRps,
                         seed * 1000 + 700 + uint64_t(b), report);
        const FaasHost::Stats& st = s.st;
        offered += n;
        refused += s.refused;
        sum.completed += st.completed;
        sum.epochYields += st.epochYields;
        sum.ioYields += st.ioYields;
        sum.coldStarts += st.coldStarts;
        sum.sandboxTransitions += st.sandboxTransitions;
        sum.gsSwitches += st.gsSwitches;
        sum.gsSwitchesSkipped += st.gsSwitchesSkipped;
        sum.stolenAdmissions += st.stolenAdmissions;
        sum.latencyTotalNs.merge(st.latencyTotalNs);
        sum.latencyQueueNs.merge(st.latencyQueueNs);
        sum.latencyServiceNs.merge(st.latencyServiceNs);
        sum.admissionDelayNs.merge(st.admissionDelayNs);
        for (const auto& sh : st.shards)
            max_depth = std::max(max_depth, sh.maxDepth);
    }
    Usage du = Usage::now() - u0;
    sfi::pool::MemoryPool::Stats p1 = host.memoryPool().stats();
    report.ops(offered, refused);
    const double req = double(std::max<uint64_t>(sum.completed, 1));
    const double kreq = req / 1000.0;
    const double host_cpu_us = du.cpuSec() * 1e6 / req;

    report.metric("faas.sojourn_p50_us",
                  finite(percentileWithMisses(sum.latencyTotalNs, refused, 50) /
                         1e3),
                  "us");
    report.metric("faas.sojourn_p99_us",
                  finite(percentileWithMisses(sum.latencyTotalNs, refused, 99) /
                         1e3),
                  "us");
    report.metric("faas.queue_wait_p50_us",
                  double(sum.latencyQueueNs.percentile(50)) / 1e3, "us");
    report.metric("faas.queue_wait_p99_us",
                  double(sum.latencyQueueNs.percentile(99)) / 1e3, "us");
    report.metric("faas.service_p50_us",
                  double(sum.latencyServiceNs.percentile(50)) / 1e3, "us");
    report.metric("faas.epoch_yields_per_req", double(sum.epochYields) / req,
                  "count");
    report.metric("faas.entries_per_req",
                  double(sum.sandboxTransitions) / req, "count");
    uint64_t gs_all = sum.gsSwitches + sum.gsSwitchesSkipped;
    report.metric("faas.gs_skip_ratio",
                  gs_all ? double(sum.gsSwitchesSkipped) / double(gs_all) : 0,
                  "ratio");
    report.metric("faas.shed_frac", double(refused) / double(offered),
                  "ratio");
    report.metric("faas.admission_p99_us",
                  double(sum.admissionDelayNs.percentile(99)) / 1e3, "us");
    report.metric("faas.steals_per_kreq", double(sum.stolenAdmissions) / kreq,
                  "count");
    report.metric("faas.shard_max_depth", double(max_depth), "count");
    report.metric("faas.cpu_us_per_req", host_cpu_us, "us");
    report.metric("faas.sys_cpu_frac",
                  du.cpuSec() > 0 ? du.sysSec / du.cpuSec() : 0, "ratio");
    report.metric("faas.minor_faults_per_req", double(du.minorFaults) / req,
                  "count");
    report.metric("faas.vol_csw_per_req", double(du.volCsw) / req, "count");
    report.metric("faas.invol_csw_per_req", double(du.involCsw) / req,
                  "count");
    report.metric("pool.warm_hit_ratio",
                  p1.allocations > p0.allocations
                      ? double(p1.warmHits - p0.warmHits) /
                            double(p1.allocations - p0.allocations)
                      : 0,
                  "ratio");
    report.metric("pool.zeroed_bytes_per_req",
                  double(p1.warmZeroedBytes - p0.warmZeroedBytes) / req,
                  "bytes");
    report.metric("pool.decommits_per_kreq",
                  double(p1.decommits - p0.decommits) / kreq, "count");
    report.metric("pool.steals_per_kreq", double(p1.steals - p0.steals) / kreq,
                  "count");
    report.metric("pool.recolors_per_kreq",
                  double(p1.recolors - p0.recolors) / kreq, "count");
    report.metric("mpk.key_recycles_per_kreq",
                  double(p1.keyRecycles - p0.keyRecycles) / kreq, "count");
    report.metric("mpk.key_shares_per_kreq",
                  double(p1.keyShares - p0.keyShares) / kreq, "count");
    report.metric("mpk.recycle_stall_us_per_req",
                  double(p1.recycleStallNs - p0.recycleStallNs) / 1e3 / req,
                  "us");
    report.samples("host_trace_requests", sum.completed);

    // Idle tail: a low fixed rate where the worker sleeps between most
    // arrivals, so queue wait prices the sleep wake-up.
    {
        Served s = serve(host, cfg, oracle, kIdleRequests, kIdleRps,
                         seed * 1000 + 900, report);
        report.ops(kIdleRequests, s.refused);
        report.metric("faas.idle_queue_wait_p99_us",
                      double(s.st.latencyQueueNs.percentile(99)) / 1e3, "us");
        report.samples("idle_requests", kIdleRequests);
    }

    // Idle floor: process CPU per wall second over an interval with
    // almost no arrivals (the epoch timer, and the workers' capped naps
    // and slot scans), and what share of faas.cpu_us_per_req it would
    // be at the nominal rate: the load-independent part of that figure.
    {
        Usage f0 = Usage::now();
        const uint64_t w0 = nowNs();
        Served s = serve(host, cfg, oracle, kFloorRequests, kFloorRps,
                         seed * 1000 + 950, report);
        const double wall = double(nowNs() - w0) / 1e9;
        const double idle_us_per_s = (Usage::now() - f0).cpuSec() * 1e6 / wall;
        report.ops(kFloorRequests, s.refused);
        report.metric("faas.idle_cpu_us_per_s", idle_us_per_s, "us/s");
        report.metric("faas.idle_floor_share",
                      idle_us_per_s / cfg.nominalRps / host_cpu_us, "ratio");
        report.samples("idle_floor_ms", uint64_t(wall * 1e3));
    }

    // Replay: untraced first (its CPU per request is the baseline of
    // the tracing overhead), then traced.
    ReplayWorld world(cfg);
    const uint64_t rn = 4000;
    replay(world, cfg, rn / 4, {}, oracle, report);  // warm the pool
    const ReplayRun plain = replay(world, cfg, rn, {}, oracle, report);
    std::vector<Tracer*> ts;
    for (int i = 0; i < cfg.workers; i++) {
        tracers.push_back(std::make_unique<Tracer>(uint32_t(tracers.size() + 1)));
        ts.push_back(tracers.back().get());
    }
    const ReplayRun traced = replay(world, cfg, rn, ts, oracle, report);
    report.samples("replay_requests", rn);

    // Every host run first checks out all of its slots.
    const SequenceCounts host_counts = {
        double(p1.allocations - p0.allocations -
               uint64_t(blocks) * uint64_t(cfg.slots)) /
            req,
        double(sum.coldStarts) / req,
        double(sum.sandboxTransitions) / req,
        double(sum.ioYields) / req,
    };
    report.metric("faas.replay_divergence",
                  divergence(host_counts, plain.perReq), "count");

    std::map<std::string, std::vector<double>> self_ns;
    double stage_ns = 0;
    for (Tracer* t : ts) {
        std::vector<uint64_t> self = selfTimes(t->spans());
        for (size_t i = 0; i < self.size(); i++) {
            const char* name = t->spans()[i].name;
            self_ns[name].push_back(double(self[i]));
            if (std::string(name) != "faas.parked")
                stage_ns += double(self[i]);
        }
    }
    const double stage_us_per_req = stage_ns / 1e3 / double(rn);
    report.metric("faas.fiber_create_us",
                  medianOf(self_ns, "faas.fiber_create") / 1e3, "us");
    report.metric("faas.fiber_destroy_us",
                  medianOf(self_ns, "faas.fiber_destroy") / 1e3, "us");
    report.metric("faas.fiber_switch_ns", medianOf(self_ns, "faas.fiber_switch"),
                  "ns");
    report.metric("faas.replay_us_per_req", plain.cpuSec * 1e6 / double(rn),
                  "us");
    report.metric("faas.trace_overhead_us_per_req",
                  (traced.cpuSec - plain.cpuSec) * 1e6 / double(rn), "us");
    report.metric("faas.unattributed_us_per_req",
                  host_cpu_us - stage_us_per_req, "us");
    report.metric("pool.allocate_ns", medianOf(self_ns, "pool.allocate"), "ns");
    report.metric("pool.free_ns", medianOf(self_ns, "pool.free"), "ns");
    report.metric("mpk.write_pkru_ns", medianOf(self_ns, "mpk.write_pkru"),
                  "ns");
    report.metric("runtime.instance_create_pooled_us",
                  medianOf(self_ns, "runtime.instance_create") / 1e3, "us");
    report.metric("runtime.entry_exit_ns",
                  medianOf(self_ns, "runtime.enter") +
                      medianOf(self_ns, "runtime.exit"),
                  "ns");
    report.metric("runtime.guest_handle_us",
                  medianOf(self_ns, "runtime.guest_handle") / 1e3, "us");
    report.metric("seg.set_gs_ns", medianOf(self_ns, "seg.set_gs"), "ns");
}

}  // namespace sfibench
