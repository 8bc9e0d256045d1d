#include "measure.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "base/rng.h"

namespace sfibench {

double
percentileWithMisses(const sfi::LogHistogram& served, uint64_t misses,
                     double p)
{
    const uint64_t n = served.count();
    const uint64_t total = n + misses;
    if (total == 0)
        return 0;
    // Nearest rank over all requests, as LogHistogram ranks its own.
    const uint64_t rank = uint64_t(p / 100.0 * double(total - 1) + 0.5);
    if (rank >= n)
        return std::numeric_limits<double>::infinity();
    if (n == 1)
        return double(served.percentile(0));
    return double(served.percentile(100.0 * double(rank) / double(n - 1)));
}

Knee
findKnee(double lo, double hi, int steps,
         const std::function<Probe(double)>& probe)
{
    Knee knee;
    auto run = [&](double rate) {
        Probe p = probe(rate);
        knee.probes.push_back(p);
        if (!p.pass) {
            // Confirm a failure once: a single stalled probe (a vCPU
            // preempted for milliseconds) must not end the search.
            Probe again = probe(rate);
            knee.probes.push_back(again);
            if (again.pass)
                p = again;
        }
        if (p.pass)
            knee.rps = std::max(knee.rps, p.offeredRps);
        return p.pass;
    };

    double pass_at = lo, fail_at = hi;
    bool any_pass = false, any_fail = false;
    for (int s = 0; s < steps; s++) {
        double mid = std::sqrt(pass_at * fail_at);
        if (run(mid)) {
            pass_at = mid;
            any_pass = true;
        } else {
            fail_at = mid;
            any_fail = true;
        }
    }
    if (!any_pass && !run(lo)) {
        knee.censoredLow = true;
        knee.rps = knee.probes.back().offeredRps;
    }
    if (!any_fail && run(hi))
        knee.censoredHigh = true;
    return knee;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Usage
Usage::now()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userSec = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) / 1e6;
    u.sysSec = double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) / 1e6;
    u.minorFaults = uint64_t(ru.ru_minflt);
    u.volCsw = uint64_t(ru.ru_nvcsw);
    u.involCsw = uint64_t(ru.ru_nivcsw);
    return u;
}

Usage
Usage::operator-(const Usage& o) const
{
    Usage d;
    d.userSec = userSec - o.userSec;
    d.sysSec = sysSec - o.sysSec;
    d.minorFaults = minorFaults - o.minorFaults;
    d.volCsw = volCsw - o.volCsw;
    d.involCsw = involCsw - o.involCsw;
    return d;
}

namespace {

uint64_t
referenceTask()
{
    std::map<uint64_t, uint64_t> m;
    sfi::Rng rng(7);
    for (uint64_t i = 0; i < 1500; i++)
        m[rng.next()] = i;
    std::vector<std::unique_ptr<char[]>> blocks;
    for (int i = 0; i < 300; i++)
        blocks.emplace_back(new char[16 + rng.below(2000)]);
    uint64_t sum = blocks.size();
    for (const auto& kv : m)
        sum += kv.first >> 7;
    return sum;
}

}  // namespace

double
referenceUs()
{
    uint64_t best = UINT64_MAX;
    for (int i = 0; i < 3; i++) {
        uint64_t t0 = nowNs();
        volatile uint64_t sink = referenceTask();
        (void)sink;
        best = std::min(best, nowNs() - t0);
    }
    return double(best) / 1e3;
}

double
peakRssMiB()
{
    FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

namespace {

cpu_set_t
startMask()
{
    static const cpu_set_t mask = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        sched_getaffinity(0, sizeof m, &m);
        return m;
    }();
    return mask;
}

}  // namespace

void
pinToOneCpu()
{
    cpu_set_t all = startMask();
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &all))
            cpu = c;
    }
    if (cpu < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

void
unpin()
{
    cpu_set_t all = startMask();
    sched_setaffinity(0, sizeof all, &all);
}

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

}  // namespace sfibench
