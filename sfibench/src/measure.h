/**
 * @file
 * Measurement helpers of the repository benchmark: tail percentiles
 * that count refused requests as misses, the knee bisection, the
 * reference task, and process counters (getrusage, VmHWM, CPU pinning).
 */
#ifndef SFIBENCH_MEASURE_H_
#define SFIBENCH_MEASURE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/stats.h"

namespace sfibench {

/**
 * p-th percentile (p in [0, 100]) of @p served latencies plus @p misses
 * requests that got no response (refused, shed, failed), which rank
 * above every served sample. Returns +infinity when the percentile's
 * rank falls among the misses, and 0 when there are no samples at all.
 */
double percentileWithMisses(const sfi::LogHistogram& served,
                            uint64_t misses, double p);

/** One open-loop probe at an offered rate. */
struct Probe
{
    bool pass = false;
    /** Realized offered rate of the schedule (requests / span). */
    double offeredRps = 0;
    /** p99 sojourn with refused requests as misses (us; inf allowed). */
    double p99Us = 0;
};

/** Outcome of a knee search. */
struct Knee
{
    /** Realized offered rate of the highest passing probe. */
    double rps = 0;
    /** Every probe run, in order (confirmations included). */
    std::vector<Probe> probes;
    /** The bracket's low end failed too (rps is then that probe's). */
    bool censoredLow = false;
    /** The bracket's high end passed (the knee is at least rps). */
    bool censoredHigh = false;
};

/**
 * Geometric bisection of the offered rate inside the fixed bracket
 * [@p lo, @p hi] for @p steps rounds. A failing probe is re-run once
 * and counts as a pass if the re-run passes, so one noisy probe cannot
 * drive the search below the knee. @p probe runs one open-loop probe
 * at the given nominal rate.
 */
Knee findKnee(double lo, double hi, int steps,
              const std::function<Probe(double)>& probe);

/** Median of @p xs; for an even count the mean of the middle two. */
double median(std::vector<double> xs);

/** Process CPU and fault counters (getrusage RUSAGE_SELF). */
struct Usage
{
    double userSec = 0;
    double sysSec = 0;
    uint64_t minorFaults = 0;
    uint64_t volCsw = 0;
    uint64_t involCsw = 0;

    static Usage now();
    Usage operator-(const Usage& o) const;
    double cpuSec() const { return userSec + sysSec; }
};

/**
 * Time (us) of a fixed, program-independent reference task: std::map
 * inserts and malloc churn, the allocation-heavy shape of compile and
 * verify work. Runs it three times and returns the fastest.
 *
 * This host's speed drifts by 10-30% over tens of seconds (and up to
 * 2x within seconds) while the reference tracks it: across runs of
 * the same inputs, cold first responses moved 587-753 us while their
 * ratio to the interleaved reference stayed at 1.31-1.32. Times that
 * drift this way are reported at reference speed: divided by the
 * reference time measured next to them, times kRefNominalUs.
 */
double referenceUs();

/** The reference task's nominal time on this benchmark's scale. */
inline constexpr double kRefNominalUs = 450;

/** Peak resident set (VmHWM) in MiB; 0 when /proc is unreadable. */
double peakRssMiB();

/** Restricts the calling thread to one CPU (the last it may run on). */
void pinToOneCpu();
/** Restores the affinity the process started with. */
void unpin();

/** Steady-clock nanoseconds. */
uint64_t nowNs();

}  // namespace sfibench

#endif  // SFIBENCH_MEASURE_H_
