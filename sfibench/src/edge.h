/**
 * @file
 * The edge phases: an open-loop FaasHost measured from outside (knee
 * search, fixed-rate sojourn blocks, CPU per request), and, for traced
 * runs, the host's counters plus a replay of its per-request sequence
 * through the public pool/fiber/runtime/mpk/seg calls with spans.
 */
#ifndef SFIBENCH_EDGE_H_
#define SFIBENCH_EDGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "faas/scheduler.h"
#include "report.h"
#include "trace.h"

namespace sfibench {

/** Host settings and measurement bounds of one edge configuration. */
struct EdgeConfig
{
    const char* handler;
    int workers;
    int slots;
    double ioMeanMs;
    uint64_t epochUs;
    bool keyRecycling;
    sfi::faas::AdmissionPolicy admission;
    uint32_t queueDepth;
    /** p99 sojourn limit of the knee search (us). */
    double limitUs;
    /** Achieved/offered rate a passing probe must keep up with. */
    double keepUp;
    /** Fixed absolute knee bracket (offered rps). */
    double kneeLo, kneeHi;
    /** Fixed nominal rate of the sojourn/CPU blocks (rps). */
    double nominalRps;
};

sfi::faas::FaasHost::Options hostOptions(const EdgeConfig& cfg);

/**
 * Expected host checksums, from direct calls of the handler outside the
 * host (xor over ids 0..n-1 of response + id, as the host folds them),
 * and an interpreter cross-check of a seeded sample of ids.
 */
class EdgeOracle
{
  public:
    EdgeOracle(const char* handler, uint64_t seed, Report& report);
    ~EdgeOracle();
    /** Expected checksum of a run serving ids 0..n-1. */
    uint64_t checksum(uint64_t n);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * CPU per request (us, at reference speed) over fixed-rate blocks for
 * @p nominal_sec. Checks conservation and checksums of every run.
 */
double measureCpuPerRequest(sfi::faas::FaasHost& host, const EdgeConfig& cfg,
                            EdgeOracle& oracle, uint64_t seed,
                            double nominal_sec, Report& report);

/**
 * Traced run over about @p seconds: the knee search, host counters
 * over fixed-rate blocks, the idle tail and idle CPU floor, and the
 * untraced-then-traced replay, cross-checked against the host. Adds
 * the faas/pool/mpk/runtime/seg per-layer metrics to @p report and the
 * replay's tracers to @p tracers.
 */
void traceEdge(sfi::faas::FaasHost& host, const EdgeConfig& cfg,
               EdgeOracle& oracle, uint64_t seed, double seconds,
               Report& report, std::vector<std::unique_ptr<Tracer>>& tracers);

}  // namespace sfibench

#endif  // SFIBENCH_EDGE_H_
