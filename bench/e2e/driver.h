/**
 * @file
 * End-to-end inference benchmark driver: shared declarations.
 *
 * The driver runs whole networks through the library's public runtime
 * API and times every layer from the outside: graph loading
 * (QuantizedGraph::fromFile), graph execution (QuantizedGraph::run and
 * runQNode), every GEMM (a timing GemmBackend wrapped around
 * MixGemmBackend), packing (packCounters), the weight store
 * (PackedWeightStore::load) and the server (registerGraph, submit,
 * stats and the RequestReport timestamps). Outputs are checked against
 * the driver's own integer reference (reference.cc), which shares no
 * code with the library's execution path.
 */

#ifndef E2E_DRIVER_H
#define E2E_DRIVER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/backend.h"
#include "runtime/qgraph.h"
#include "trace/session.h"

namespace e2e
{

using mixgemm::ConvSpec;
using mixgemm::QNode;
using mixgemm::QuantizedGraph;
using mixgemm::QuantParams;
using Tensor = mixgemm::Tensor<double>;

/** Monotonic nanoseconds (same clock as the server's MonotonicClock). */
uint64_t nowNs();

/** Nanoseconds to milliseconds. */
inline double toMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/** Quantile with linear interpolation (q in [0, 1]); 0 for no data. */
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Arithmetic mean; 0 for no data. */
double mean(const std::vector<double> &values);

/** Deterministic xorshift64 stream. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed)
        : state(seed ? seed * 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull)
    {
        next();
    }
    uint64_t next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
    /** Uniform integer in [lo, hi]. */
    int32_t range(int32_t lo, int32_t hi)
    {
        return lo + static_cast<int32_t>(
                        next() % static_cast<uint64_t>(hi - lo + 1));
    }
};

// ------------------------------------------------------------- report

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Outcome of one benchmark run, printed as the final JSON line. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Human-readable check failures (stderr). */
    std::vector<std::string> problems;

    void fail(const std::string &why);
    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Print @p result as the last stdout line, restricted to @p trace's
 * metric list (end-to-end or per-layer). */
void printResult(const RunResult &result, bool trace);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

// -------------------------------------------------------------- spans

/** One complete trace-event span. */
struct Span
{
    std::string name;
    const char *cat = "";
    uint64_t id = 0;  ///< image or request id shared by nested spans
    unsigned tid = 0; ///< lane in the trace viewer
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
};

/** In-memory span buffer, written as trace-event JSON at the end. */
class SpanLog
{
  public:
    void add(Span span);
    size_t size() const;
    /** Write Chrome/Perfetto trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// ----------------------------------------------------- timing backend

/**
 * GemmBackend that forwards to a MixGemmBackend and accounts every
 * call from the outside: count, Σ m·n·k, busy time, optional spans and
 * optional capture of the integer accumulators (for the exactness
 * check). It also exposes an optional TraceSession so
 * QuantizedGraph::tryRun records its per-node timers into it.
 */
class TimingBackend final : public mixgemm::GemmBackend
{
  public:
    explicit TimingBackend(mixgemm::MixGemmBackend &inner) : inner_(inner) {}

    std::vector<int64_t> gemm(std::span<const int32_t> a,
                              std::span<const int32_t> b, uint64_t m,
                              uint64_t n, uint64_t k,
                              const mixgemm::DataSizeConfig &config) override;
    std::string name() const override { return "timing/" + inner_.name(); }
    unsigned threads() const override { return inner_.threads(); }
    mixgemm::TraceSession *traceSession() const override { return session_; }
    mixgemm::Status lastStatus() const override
    {
        return inner_.lastStatus();
    }

    void setSession(mixgemm::TraceSession *session) { session_ = session; }
    /** Record one span per call into @p spans under image @p id. */
    void setSpans(SpanLog *spans, uint64_t id, unsigned tid)
    {
        spans_ = spans;
        span_id_ = id;
        span_tid_ = tid;
    }
    void setCapture(bool capture) { capture_ = capture; }

    /** Zero the per-image counters and drop captured outputs. */
    void reset();

    uint64_t calls = 0;
    uint64_t macs = 0;
    /** Σ m·n·k of the last image a runner ran (its heads excluded). */
    uint64_t image_macs = 0;
    uint64_t busy_ns = 0;
    /** Accumulators of every call since reset(), when capturing. */
    std::vector<std::vector<int64_t>> captured;

    mixgemm::MixGemmBackend &inner() { return inner_; }

  private:
    mixgemm::MixGemmBackend &inner_;
    mixgemm::TraceSession *session_ = nullptr;
    SpanLog *spans_ = nullptr;
    uint64_t span_id_ = 0;
    unsigned span_tid_ = 0;
    bool capture_ = false;
};

// ---------------------------------------------------------- reference

/** Eq. 1 quantization with zero point 0, as the driver's own code. */
int32_t refQuantize(double x, const QuantParams &params);

/** Result of the reference evaluation of one node. */
struct RefNode
{
    Tensor output;
    /** Integer accumulators in the library's GEMM call order: one
     * vector per GEMM call (depthwise: one per channel), row-major
     * [gemmM x gemmN]. Empty for elementwise nodes. */
    std::vector<std::vector<int64_t>> acc;
    uint64_t codes = 0;   ///< input codes quantized by this node
    uint64_t clamped = 0; ///< of which saturated at the clamp range
};

/**
 * Evaluate @p node on @p input with the driver's own direct
 * convolution / linear / elementwise code: quantize, integer
 * accumulate, requantize as s_a·s_w·acc + bias.
 */
RefNode refNode(const QNode &node, const Tensor &input);

/**
 * Map a node output value into the consumer's code domain (ReLU when
 * @p relu, then the consumer's quantizer) — the space in which two
 * outputs within one quantization step are indistinguishable.
 */
int32_t consumerCode(double v, bool relu, const QuantParams &consumer);

// ----------------------------------------------------------- networks

/** A network ready for the benchmark: its graph plus bookkeeping. */
struct Network
{
    std::string name;
    QuantizedGraph graph;            ///< as loaded, strides restored
    std::vector<size_t> input_shape; ///< {1, c, h, w}
    double input_scale = 1.0;        ///< image code -> value
};

/** Generate and write every file @p workload needs under @p dir, if
 * missing. Deterministic: independent of the run seed. */
void prepareWorkload(const std::string &workload, const std::string &dir);

/** Graph file path of one prepared network or layer. */
std::string graphPath(const std::string &dir, const std::string &name);

/**
 * Load a prepared network through QuantizedGraph::fromFile and restore
 * the strides the file format does not carry. @p name names the file.
 */
Network loadNetwork(const std::string &dir, const std::string &name);

/** Names of the ResNet-18 GEMM layers, in dnn/models order. */
std::vector<std::string> resnetLayerNames();

/** Input shape {1, c, h, w} of ResNet-18 layer @p index at 224². */
std::vector<size_t> resnetLayerInputShape(size_t index);

/** An input image for @p net: signed 8-bit codes times the input
 * scale, drawn from @p rng. */
Tensor makeImage(const std::vector<size_t> &shape, double scale, Rng &rng);

/** An activation tensor of post-ReLU codes (about half zero) at
 * @p params, drawn from @p rng. */
Tensor makeActivation(const std::vector<size_t> &shape,
                      const QuantParams &params, Rng &rng);

/** Global average pool {1, c, h, w} -> {1, c}. */
Tensor globalAvgPool(const Tensor &t);

// ---------------------------------------------------------- workloads

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string data_dir;  ///< prepared graph files
    std::string trace_dir; ///< span files of traced runs
    uint64_t process_start_ns = 0;
};

/** Threads for the multi-threaded metrics: min(2, hardware threads). */
unsigned mtThreads();

RunResult runResnetLayers(const Options &options);
RunResult runMobilenet(const Options &options);
RunResult runServe(const Options &options);

} // namespace e2e

#endif // E2E_DRIVER_H
