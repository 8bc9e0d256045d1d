/**
 * @file
 * What one benchmark invocation reports: named metrics with units,
 * operation counts, output-check failures and the sample counts behind
 * each metric. main.cc prints it; the phases only add to it.
 */
#ifndef SFIBENCH_REPORT_H_
#define SFIBENCH_REPORT_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace sfibench {

class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }

    /** Sample count behind a metric family (recorded with the result). */
    void
    samples(std::string what, uint64_t n)
    {
        samples_.emplace_back(std::move(what), n);
    }

    /** Operations attempted and those without a correct response. */
    void
    ops(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    /** An output check failed: the run is not correct. */
    void
    mismatch(const char* fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        char buf[512];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, ap);
        va_end(ap);
        std::fprintf(stderr, "sfibench: output check failed: %s\n", buf);
        mismatches_.push_back(buf);
    }

    /** Records a mismatch described by @p what unless @p cond holds. */
    void
    check(bool cond, const char* what)
    {
        if (!cond)
            mismatch("%s", what);
    }

    bool correct() const { return mismatches_.empty(); }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<Metric>& metrics() const { return metrics_; }
    const std::vector<std::pair<std::string, uint64_t>>&
    sampleCounts() const
    {
        return samples_;
    }
    const std::vector<std::string>& mismatches() const { return mismatches_; }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, uint64_t>> samples_;
    std::vector<std::string> mismatches_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

}  // namespace sfibench

#endif  // SFIBENCH_REPORT_H_
