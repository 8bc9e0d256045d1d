#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "measure.h"
#include "perflab/json.h"

namespace sfibench {

int32_t
Tracer::begin(const char* name, uint64_t request, int32_t parent)
{
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.startNs = nowNs();
    spans_.push_back(s);
    return int32_t(spans_.size() - 1);
}

void
Tracer::end(int32_t idx)
{
    spans_[size_t(idx)].endNs = nowNs();
}

int32_t
Tracer::record(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t request, int32_t parent)
{
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.request = request;
    s.parent = parent;
    spans_.push_back(s);
    return int32_t(spans_.size() - 1);
}

std::vector<uint64_t>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<int32_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        int32_t p = spans[i].parent;
        if (p >= 0 && size_t(p) < spans.size())
            children[size_t(p)].push_back(int32_t(i));
    }
    std::vector<uint64_t> self(spans.size());
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t i = 0; i < spans.size(); i++) {
        const Span& s = spans[i];
        uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
        iv.clear();
        for (int32_t c : children[i]) {
            uint64_t a = std::max(spans[size_t(c)].startNs, s.startNs);
            uint64_t b = std::min(spans[size_t(c)].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

std::string
chromeTrace(const std::vector<const Tracer*>& tracers, size_t max_spans)
{
    uint64_t t0 = UINT64_MAX;
    for (const Tracer* t : tracers) {
        for (const Span& s : t->spans())
            t0 = std::min(t0, s.startNs);
    }
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char buf[160];
    for (const Tracer* t : tracers) {
        size_t n = std::min(max_spans, t->spans().size());
        for (size_t i = 0; i < n; i++) {
            const Span& s = t->spans()[i];
            uint64_t end = std::max(s.endNs, s.startNs);
            if (!first)
                out += ',';
            first = false;
            out += "{\"name\":\"";
            out += sfi::perflab::jsonEscape(s.name);
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                          "\"ts\":%.3f,\"dur\":%.3f,",
                          t->tid(), double(s.startNs - t0) / 1e3,
                          double(end - s.startNs) / 1e3);
            out += buf;
            std::snprintf(buf, sizeof buf,
                          "\"args\":{\"request\":%llu,\"parent\":%d}}",
                          (unsigned long long)s.request, s.parent);
            out += buf;
        }
    }
    out += "]}\n";
    return out;
}

}  // namespace sfibench
