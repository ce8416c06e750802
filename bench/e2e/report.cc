/**
 * @file
 * Measurement plumbing: clocks, quantiles, the result line, the span
 * buffer and the timing GEMM backend.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

#include "common/logging.h"
#include "driver.h"

namespace e2e
{

namespace
{

struct MetricDecl
{
    const char *name;
    const char *unit;
};

/// Metric names and units, as BENCHMARK.json declares them.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"image_latency_mean_ms", "ms"},
    {"image_latency_mt_mean_ms", "ms"},
    {"request_latency_p90_ms", "ms"},
    {"throughput_rps", "req/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDecl kPerLayer[] = {
    {"runtime.conv_ms", "ms"},
    {"runtime.depthwise_ms", "ms"},
    {"runtime.elementwise_ms", "ms"},
    {"runtime.linear_ms", "ms"},
    {"runtime.self_ms", "ms"},
    {"runtime.self_share", "share"},
    {"gemm.calls", "count"},
    {"gemm.busy_ms", "ms"},
    {"gemm.gops", "Gop/s"},
    {"gemm.ops", "count"},
    {"gemm.bs_ip", "count"},
    {"gemm.mt_speedup", "x"},
    {"pack.a_packs", "count"},
    {"pack.b_packs", "count"},
    {"pack.cluster_builds", "count"},
    {"store.load_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.self_p50_ms", "ms"},
    {"serve.gen_lag_p99_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.degraded", "count"},
    {"trace.overhead_share", "share"},
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
RunResult::fail(const std::string &why)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(why);
}

double
peakRssMb()
{
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printResult(const RunResult &result, bool trace)
{
    RunResult r = result;
    std::string metrics;
    for (const MetricDecl &m : trace ? std::span<const MetricDecl>(kPerLayer)
                                     : std::span<const MetricDecl>(kEndToEnd)) {
        auto it = r.metrics.find(m.name);
        double value = it == r.metrics.end() ? 0.0 : it->second.value;
        if (!trace && (it == r.metrics.end() || !(value > 0.0)))
            r.fail(std::string("end-to-end metric not measured: ") + m.name);
        if (!std::isfinite(value)) {
            r.fail(std::string("non-finite metric ") + m.name);
            value = 0.0;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + m.name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    for (const std::string &p : r.problems)
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
    std::fflush(stdout);
}

// --------------------------------------------------------------- spans

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    uint64_t origin = UINT64_MAX;
    for (const Span &s : spans_)
        origin = std::min(origin, s.start_ns);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                      static_cast<double>(s.start_ns - origin) / 1e3,
                      static_cast<double>(s.dur_ns) / 1e3);
        os << "{\"name\": \"" << jsonEscape(s.name) << "\", \"cat\": \""
           << s.cat << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
           << ", \"ts\": " << buf << ", \"args\": {\"id\": " << s.id << "}}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

// ------------------------------------------------------ timing backend

std::vector<int64_t>
TimingBackend::gemm(std::span<const int32_t> a, std::span<const int32_t> b,
                    uint64_t m, uint64_t n, uint64_t k,
                    const mixgemm::DataSizeConfig &config)
{
    const uint64_t start = nowNs();
    std::vector<int64_t> c = inner_.gemm(a, b, m, n, k, config);
    const uint64_t dur = nowNs() - start;
    ++calls;
    macs += m * n * k;
    busy_ns += dur;
    if (spans_)
        spans_->add(Span{mixgemm::strCat("gemm ", m, "x", n, "x", k), "gemm",
                         span_id_, span_tid_, start, dur});
    if (capture_)
        captured.push_back(c);
    return c;
}

void
TimingBackend::reset()
{
    calls = macs = busy_ns = 0;
    captured.clear();
}

} // namespace e2e
