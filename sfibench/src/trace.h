/**
 * @file
 * In-memory spans for the benchmark's traced runs. Spans are recorded
 * from the benchmark's own files around calls into each layer; one
 * request's spans share its id and point at their parent by index, so
 * spans from interleaved fibers nest correctly without a shared stack.
 * They are written out once, at exit, as Chrome trace-event JSON.
 */
#ifndef SFIBENCH_TRACE_H_
#define SFIBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sfibench {

struct Span
{
    const char* name = "";  ///< static string: "<layer>.<stage>"
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int32_t parent = -1;    ///< index into the same tracer, -1 = root
    uint64_t request = 0;
};

/** One thread's spans. Not thread-safe: one tracer per thread. */
class Tracer
{
  public:
    explicit Tracer(uint32_t tid = 0) : tid_(tid) {}

    /** Opens a span now; returns its index for end() and children. */
    int32_t begin(const char* name, uint64_t request, int32_t parent);
    /** Closes span @p idx now. */
    void end(int32_t idx);
    /** Records a span whose endpoints were timed elsewhere. */
    int32_t record(const char* name, uint64_t start_ns, uint64_t end_ns,
                   uint64_t request, int32_t parent);

    const std::vector<Span>& spans() const { return spans_; }
    uint32_t tid() const { return tid_; }

  private:
    uint32_t tid_;
    std::vector<Span> spans_;
};

/**
 * Opens a span on construction and closes it on destruction; a no-op
 * when the tracer is null, which is how the untraced replay runs the
 * same code path.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* t, const char* name, uint64_t request,
               int32_t parent = -1)
        : t_(t), idx_(t ? t->begin(name, request, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->end(idx_);
    }
    int32_t index() const { return idx_; }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* t_;
    int32_t idx_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its children cover (overlapping children counted once, parts
 * outside the parent ignored).
 */
std::vector<uint64_t> selfTimes(const std::vector<Span>& spans);

/**
 * Chrome trace-event JSON ("X" complete events, microsecond ts/dur,
 * one tid per tracer) of at most @p max_spans spans per tracer.
 */
std::string chromeTrace(const std::vector<const Tracer*>& tracers,
                        size_t max_spans);

}  // namespace sfibench

#endif  // SFIBENCH_TRACE_H_
