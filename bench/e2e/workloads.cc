/**
 * @file
 * The three workloads. Each run: set up (load graph files, build
 * backends or the server, generate inputs from the seed, warm up), then
 * measure whole rounds of the same operations until the time is up,
 * read the peak RSS, and only then check every output against the
 * driver's reference.
 *
 * Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
 * (--trace 1) time every node and GEMM call of the images they trace,
 * keep the spans in memory, write them as trace-event JSON at the end
 * and report the per-layer metrics plus the tracing overhead.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <sys/stat.h>

#include "common/logging.h"
#include "dnn/models.h"
#include "serve/server.h"
#include "store/store.h"
#include "tensor/packing.h"
#include "driver.h"

namespace e2e
{

using mixgemm::MixGemmBackend;
using mixgemm::strCat;

/// Two threads, not every hardware thread: a multi-threaded GEMM waits
/// for its slowest thread, so on a shared host each more vCPU it spans
/// adds that vCPU's stalls to every call.
unsigned
mtThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(2u, hw);
}

namespace
{

/// Distinct inputs per network run, cycled through by the rounds.
constexpr size_t kNetworkPool = 2;
/// Distinct inputs of the serving workload.
constexpr size_t kServePool = 16;
/// Tolerance of a checked output: this many steps of an 8-bit
/// quantizer spanning the reference output's range (per node), and of
/// the chained logits (whole network).
constexpr int kNodeSteps = 1;
constexpr double kChainSteps = 2.0;
/// Length of the closed-loop burst in each round of a network workload.
constexpr double kBurstSeconds = 1.0;

uint64_t
fingerprint(uint64_t h, std::span<const double> values)
{
    for (const double v : values) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 0x100000001b3ull;
    }
    return h;
}

/** Per-image accounting taken from outside the library. */
struct ImageStats
{
    double total_ms = 0;
    double conv_ms = 0, depthwise_ms = 0, linear_ms = 0, elementwise_ms = 0;
    double gemm_ms = 0;
    uint64_t calls = 0, macs = 0, bs_ip = 0;
    uint64_t a_packs = 0, b_packs = 0, cluster_builds = 0;

    void addNode(QNode::Kind kind, double ms)
    {
        switch (kind) {
          case QNode::Kind::kConv: conv_ms += ms; break;
          case QNode::Kind::kDepthwise: depthwise_ms += ms; break;
          case QNode::Kind::kLinear: linear_ms += ms; break;
          default: elementwise_ms += ms; break;
        }
    }
    double nodeMs() const
    {
        return conv_ms + depthwise_ms + linear_ms + elementwise_ms;
    }
    double selfMs() const
    {
        return conv_ms + depthwise_ms + linear_ms - gemm_ms;
    }
};

/** What one traced image needs besides the backend. */
struct TraceContext
{
    SpanLog *spans = nullptr;
    mixgemm::TraceSession *session = nullptr;
    uint64_t id = 0;
    unsigned tid = 0;
};

/** Outcome of the reference check of one input. */
struct CheckTotals
{
    uint64_t codes = 0, clamped = 0;
    double max_node_steps = 0; ///< worst node error, in consumer steps
    double max_chain_steps = 0;
};

/** One checked output: library vs reference, in steps of an 8-bit
 * quantizer spanning the reference range; false beyond @p steps. */
bool
withinSteps(std::span<const double> lib, std::span<const double> ref,
            double steps, double &worst)
{
    if (lib.size() != ref.size())
        return false;
    double range = 0;
    for (const double v : ref)
        range = std::max(range, std::abs(v));
    const double step = range > 0 ? range / 127.0 : 1.0;
    double err = 0;
    for (size_t i = 0; i < lib.size(); ++i)
        err = std::max(err, std::abs(lib[i] - ref[i]) / step);
    worst = std::max(worst, err);
    return err <= steps;
}

/** Compare a node's library result with the reference: exact integer
 * accumulators, then the output within one consumer step. */
void
checkNode(const std::string &what, const RefNode &ref,
          const TimingBackend &tb, const Tensor &lib, bool relu,
          const QuantParams *consumer, RunResult &r, CheckTotals &totals)
{
    totals.codes += ref.codes;
    totals.clamped += ref.clamped;
    if (tb.captured.size() != ref.acc.size()) {
        r.fail(strCat(what, ": ", tb.captured.size(), " GEMM calls, ",
                      ref.acc.size(), " expected"));
        return;
    }
    for (size_t i = 0; i < ref.acc.size(); ++i)
        if (tb.captured[i] != ref.acc[i]) {
            r.fail(strCat(what, ": integer accumulators differ (call ", i,
                          ")"));
            return;
        }
    if (lib.shape() != ref.output.shape()) {
        r.fail(strCat(what, ": output shape differs"));
        return;
    }
    if (!consumer) {
        if (!withinSteps(lib.flat(), ref.output.flat(), kNodeSteps,
                         totals.max_node_steps))
            r.fail(strCat(what, ": output outside tolerance"));
        return;
    }
    int worst = 0;
    for (size_t i = 0; i < lib.size(); ++i)
        worst = std::max(
            worst, std::abs(consumerCode(lib.data()[i], relu, *consumer) -
                            consumerCode(ref.output.data()[i], relu,
                                         *consumer)));
    totals.max_node_steps =
        std::max(totals.max_node_steps, static_cast<double>(worst));
    if (worst > kNodeSteps)
        r.fail(strCat(what, ": output off by ", worst,
                      " consumer quantization steps"));
}

/**
 * Failures thrown on the driver's own threads (client, collector): an
 * exception must not escape a thread's entry function, so each body
 * runs under guard() and what it threw becomes a failed operation.
 */
class ThreadFailures
{
  public:
    template <typename Fn> void guard(Fn &&fn)
    {
        try {
            fn();
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mutex_);
            errors_.push_back(e.what());
        }
    }
    /** Count every recorded failure into @p r. */
    void report(RunResult &r) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::string &e : errors_) {
            ++r.failed;
            r.fail("operation threw: " + e);
        }
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::string> errors_;
};

// ------------------------------------------------------------- runners

/** A network the benchmark can time image by image and check. */
class Runner
{
  public:
    virtual ~Runner() = default;
    /** Run input @p idx through the library; returns the output
     * fingerprint. Fills @p stats and spans when @p trace is given. */
    virtual uint64_t run(size_t idx, TimingBackend &tb, ImageStats *stats,
                         const TraceContext *trace) = 0;
    /** Re-run input @p idx node by node against the reference; returns
     * the fingerprint of the checked output. */
    virtual uint64_t check(size_t idx, TimingBackend &tb, RunResult &r,
                           CheckTotals &totals) = 0;
    /** Σ m·n·k the GEMM calls of one image must add up to; run()
     * leaves the count of its image in TimingBackend::image_macs. */
    virtual uint64_t expectedMacs() const = 0;
};

/** ResNet-18's GEMM layers, each on an input of its own shape. */
class LayerSweep final : public Runner
{
  public:
    LayerSweep(const std::string &dir, uint64_t seed)
    {
        const auto names = resnetLayerNames();
        for (const auto &name : names)
            layers_.push_back(loadNetwork(dir, name));
        Rng rng(seed);
        inputs_.resize(kNetworkPool);
        for (auto &set : inputs_)
            for (size_t i = 0; i < layers_.size(); ++i) {
                const QNode &node = layers_[i].graph.nodes()[0];
                set.push_back(node.a_params.is_signed
                                  ? makeImage(layers_[i].input_shape,
                                              node.a_params.scale, rng)
                                  : makeActivation(layers_[i].input_shape,
                                                   node.a_params, rng));
            }
    }

    uint64_t run(size_t idx, TimingBackend &tb, ImageStats *stats,
                 const TraceContext *trace) override
    {
        uint64_t h = 0xcbf29ce484222325ull;
        const uint64_t macs0 = tb.macs;
        for (size_t i = 0; i < layers_.size(); ++i) {
            const QNode &node = layers_[i].graph.nodes()[0];
            const uint64_t start = nowNs();
            const Tensor out = mixgemm::runQNode(node, inputs_[idx][i], tb);
            const uint64_t dur = nowNs() - start;
            h = fingerprint(h, out.flat());
            if (stats)
                stats->addNode(node.kind, toMs(dur));
            if (trace && trace->spans)
                trace->spans->add(Span{layers_[i].name, "node", trace->id,
                                       trace->tid, start, dur});
        }
        tb.image_macs = tb.macs - macs0;
        return h;
    }

    uint64_t check(size_t idx, TimingBackend &tb, RunResult &r,
                   CheckTotals &totals) override
    {
        uint64_t h = 0xcbf29ce484222325ull;
        tb.setCapture(true);
        for (size_t i = 0; i < layers_.size(); ++i) {
            const QNode &node = layers_[i].graph.nodes()[0];
            tb.reset();
            const Tensor out = mixgemm::runQNode(node, inputs_[idx][i], tb);
            h = fingerprint(h, out.flat());
            checkNode(layers_[i].name, refNode(node, inputs_[idx][i]), tb,
                      out, false, nullptr, r, totals);
        }
        tb.setCapture(false);
        tb.reset();
        return h;
    }

    uint64_t expectedMacs() const override
    {
        return mixgemm::resNet18().totalMacs();
    }

  private:
    std::vector<Network> layers_;
    std::vector<std::vector<Tensor>> inputs_;
};

/** A chain graph run by QuantizedGraph::run, optionally followed by a
 * global average pool and an fc node the driver runs itself (the graph
 * has no pooling op). */
class Chain final : public Runner
{
  public:
    Chain(const std::string &dir, const std::string &trunk,
          const std::string &head, uint64_t seed, size_t pool,
          uint64_t expected_macs)
        : trunk_(loadNetwork(dir, trunk)), expected_macs_(expected_macs)
    {
        if (!head.empty())
            head_ = std::make_unique<Network>(loadNetwork(dir, head));
        out_shape_ = outputShape();
        Rng rng(seed);
        for (size_t i = 0; i < pool; ++i)
            images_.push_back(
                makeImage(trunk_.input_shape, trunk_.input_scale, rng));
    }

    const Tensor &image(size_t idx) const { return images_[idx]; }
    const Network &trunk() const { return trunk_; }

    uint64_t run(size_t idx, TimingBackend &tb, ImageStats *stats,
                 const TraceContext *trace) override
    {
        const auto &nodes = trunk_.graph.nodes();
        mixgemm::MetricSet before;
        if (trace && trace->session)
            before = trace->session->metrics();
        tb.setSession(trace ? trace->session : nullptr);
        const uint64_t macs0 = tb.macs;
        const uint64_t start = nowNs();
        std::vector<double> out = trunk_.graph.run(images_[idx], tb);
        tb.setSession(nullptr);
        tb.image_macs = tb.macs - macs0;
        if (trace && trace->session) {
            // Per-node timers recorded by tryRun; nodes ran back to back,
            // so their spans are laid out in order from the trunk start.
            const mixgemm::MetricSet after = trace->session->metrics();
            uint64_t at = start;
            for (size_t i = 0; i < nodes.size(); ++i) {
                const std::string name =
                    strCat("layer/", kindName(nodes[i].kind), "#", i);
                uint64_t ns = 0;
                if (auto it = after.all().find(name); it != after.all().end())
                    ns = it->second.sum();
                if (auto it = before.all().find(name);
                    it != before.all().end())
                    ns -= it->second.sum();
                if (stats)
                    stats->addNode(nodes[i].kind, toMs(ns));
                if (trace->spans)
                    trace->spans->add(Span{name.substr(6), "node", trace->id,
                                           trace->tid, at, ns});
                at += ns;
            }
        }
        return finish(std::move(out), tb, stats, trace);
    }

    /** Pool the trunk output @p out, run the head on it (when there is
     * one) and return the fingerprint of the result. */
    uint64_t finish(std::vector<double> out, TimingBackend &tb,
                    ImageStats *stats = nullptr,
                    const TraceContext *trace = nullptr)
    {
        if (!head_)
            return fingerprint(0xcbf29ce484222325ull, out);
        const Tensor pooled =
            globalAvgPool(Tensor(out_shape_, std::move(out)));
        const uint64_t fc_start = nowNs();
        const Tensor logits =
            mixgemm::runQNode(head_->graph.nodes()[0], pooled, tb);
        const uint64_t fc_ns = nowNs() - fc_start;
        if (stats)
            stats->addNode(QNode::Kind::kLinear, toMs(fc_ns));
        if (trace && trace->spans)
            trace->spans->add(Span{"fc", "node", trace->id, trace->tid,
                                   fc_start, fc_ns});
        return fingerprint(0xcbf29ce484222325ull, logits.flat());
    }

    uint64_t check(size_t idx, TimingBackend &tb, RunResult &r,
                   CheckTotals &totals) override
    {
        const auto &nodes = trunk_.graph.nodes();
        tb.setCapture(true);
        Tensor x = images_[idx];
        uint64_t macs = 0;
        for (size_t i = 0; i < nodes.size(); ++i) {
            tb.reset();
            Tensor out = mixgemm::runQNode(nodes[i], x, tb);
            macs += tb.macs;
            // The consumer of this output: the next GEMM node, through a
            // ReLU when one follows; the head for the trunk's last node.
            const QuantParams *consumer = nullptr;
            bool relu = false;
            for (size_t j = i + 1; j < nodes.size() && !consumer; ++j) {
                relu |= nodes[j].kind == QNode::Kind::kRelu;
                if (isGemmKind(nodes[j].kind))
                    consumer = &nodes[j].a_params;
            }
            if (!consumer && head_)
                consumer = &head_->graph.nodes()[0].a_params;
            checkNode(strCat(trunk_.name, " node ", i, " (",
                             kindName(nodes[i].kind), ")"),
                      refNode(nodes[i], x), tb, out, relu, consumer, r,
                      totals);
            x = std::move(out);
        }
        if (expected_macs_ && macs != expected_macs_)
            r.fail(strCat(trunk_.name, ": GEMM calls add up to ", macs,
                          " MACs, the network has ", expected_macs_));
        Tensor logits = x;
        if (head_) {
            const Tensor pooled = globalAvgPool(x);
            tb.reset();
            logits = mixgemm::runQNode(head_->graph.nodes()[0], pooled, tb);
            checkNode(head_->name, refNode(head_->graph.nodes()[0], pooled),
                      tb, logits, false, nullptr, r, totals);
        }
        tb.setCapture(false);
        tb.reset();
        // The whole chain on the reference's own codes.
        const Tensor ref = referenceLogits(idx, nullptr);
        if (!withinSteps(logits.flat(), ref.flat(), kChainSteps,
                         totals.max_chain_steps))
            r.fail(strCat(trunk_.name, ": logits differ from the reference "
                                       "chain by more than ",
                          kChainSteps, " steps"));
        return fingerprint(0xcbf29ce484222325ull, logits.flat());
    }

    /** Logits of the driver's reference chain for input @p idx. */
    Tensor referenceLogits(size_t idx, CheckTotals *totals) const
    {
        Tensor x = images_[idx];
        for (const QNode &node : trunk_.graph.nodes()) {
            RefNode ref = refNode(node, x);
            if (totals) {
                totals->codes += ref.codes;
                totals->clamped += ref.clamped;
            }
            x = std::move(ref.output);
        }
        if (head_)
            x = refNode(head_->graph.nodes()[0], globalAvgPool(x)).output;
        return x;
    }

    uint64_t expectedMacs() const override { return expected_macs_; }

  private:
    static bool isGemmKind(QNode::Kind kind)
    {
        return kind == QNode::Kind::kConv ||
               kind == QNode::Kind::kDepthwise ||
               kind == QNode::Kind::kLinear;
    }

    static const char *kindName(QNode::Kind kind)
    {
        switch (kind) {
          case QNode::Kind::kConv: return "conv";
          case QNode::Kind::kDepthwise: return "depthwise";
          case QNode::Kind::kLinear: return "linear";
          case QNode::Kind::kRelu: return "relu";
          case QNode::Kind::kMaxPool2: return "maxpool2";
          case QNode::Kind::kFlatten: return "flatten";
        }
        return "unknown";
    }

    /** Shape of the trunk output: the last GEMM node's channels over
     * the spatial extent the strides leave. */
    std::vector<size_t> outputShape() const
    {
        size_t c = trunk_.input_shape[1], h = trunk_.input_shape[2],
               w = trunk_.input_shape[3];
        for (const QNode &node : trunk_.graph.nodes()) {
            if (isGemmKind(node.kind)) {
                ConvSpec s = node.spec;
                s.in_h = static_cast<unsigned>(h);
                s.in_w = static_cast<unsigned>(w);
                c = s.out_c;
                h = s.outH();
                w = s.outW();
            } else if (node.kind == QNode::Kind::kMaxPool2) {
                h /= 2;
                w /= 2;
            }
        }
        return {1, c, h, w};
    }

    Network trunk_;
    std::unique_ptr<Network> head_;
    std::vector<size_t> out_shape_;
    std::vector<Tensor> images_;
    uint64_t expected_macs_ = 0; ///< 0: not checked
};

// ----------------------------------------------------- shared helpers

mixgemm::PackCounters
packDelta(const mixgemm::PackCounters &a, const mixgemm::PackCounters &b)
{
    return {b.a_packs - a.a_packs, b.b_packs - a.b_packs,
            b.cluster_builds - a.cluster_builds, b.adoptions - a.adoptions};
}

/**
 * An InferenceServer in wall mode serving one chain graph, its weights
 * prepacked through a resident PackedWeightStore. One GEMM thread per
 * worker; no deadlines, chaos, tenancy, hedging or degradation.
 */
class Served
{
  public:
    Served(const Network &net, unsigned workers)
    {
        mixgemm::StoreOptions store_options;
        store_options.dir = "";
        store_options.persist = false;
        store_ = std::make_unique<mixgemm::PackedWeightStore>(store_options);
        const uint64_t load0 = nowNs();
        auto packed = store_->load(net.graph);
        load_ms_ = toMs(nowNs() - load0);
        if (!packed.ok())
            mixgemm::fatal("weight store: " + packed.status().toString());
        packed_ = *packed;

        mixgemm::ServerOptions so;
        so.workers = workers;
        so.backend_threads = 1;
        so.queue_capacity = 4096;
        so.degradation.enabled = false;
        so.weight_store = store_.get();
        server_ = std::make_unique<mixgemm::InferenceServer>(so);
        std::vector<mixgemm::TierSpec> ladder(1);
        ladder[0].graph = net.graph;
        ladder[0].label = "rung0";
        auto id = server_->registerGraph(net.name, std::move(ladder),
                                         net.input_shape);
        if (!id.ok())
            mixgemm::fatal("registerGraph: " + id.status().toString());
        graph_id_ = *id;
    }

    std::future<mixgemm::ServeResponse> submit(const Tensor &input)
    {
        mixgemm::ServeRequest req;
        req.graph_id = graph_id_;
        req.input = input;
        return server_->submit(std::move(req));
    }

    /** Time PackedWeightStore::load took to prepack the graph. */
    double storeLoadMs() const { return load_ms_; }

    mixgemm::ServerStats stats() const { return server_->stats(); }

    /** Check that the @p resolved futures the client saw are each in
     * exactly one terminal bucket of the server's stats. */
    static void checkAccounting(const mixgemm::ServerStats &stats,
                                uint64_t resolved, RunResult &r)
    {
        const uint64_t terminal =
            stats.completed_ok + stats.shed + stats.rejected_full +
            stats.rejected_invalid + stats.rejected_closed +
            stats.rejected_draining + stats.rejected_rate +
            stats.rejected_bulkhead + stats.rejected_tenant_limit +
            stats.expired_submit + stats.deadline_exceeded +
            stats.cancelled + stats.failed;
        if (terminal != resolved)
            r.fail(strCat("client resolved ", resolved,
                          " futures, server stats account for ", terminal));
    }

  private:
    std::unique_ptr<mixgemm::PackedWeightStore> store_;
    std::shared_ptr<const mixgemm::PackedModel> packed_;
    std::unique_ptr<mixgemm::InferenceServer> server_;
    uint64_t graph_id_ = 0;
    double load_ms_ = 0;
};

/** Serve-layer metrics from the RequestReports of completed requests. */
struct ServeSample
{
    double latency_ms, queue_ms, service_ms;
};

void
setServeMetrics(RunResult &r, const std::vector<ServeSample> &samples,
                double direct_ms, const std::vector<double> &gen_lag,
                double store_load_ms, const mixgemm::ServerStats &stats)
{
    std::vector<double> queue, service;
    for (const ServeSample &s : samples) {
        queue.push_back(s.queue_ms);
        service.push_back(s.service_ms);
    }
    r.set("store.load_ms", store_load_ms, "ms");
    r.set("serve.queue_wait_p50_ms", quantile(queue, 0.5), "ms");
    r.set("serve.queue_wait_p99_ms", quantile(queue, 0.99), "ms");
    const double service_p50 = quantile(service, 0.5);
    r.set("serve.service_p50_ms", service_p50, "ms");
    r.set("serve.self_p50_ms", service_p50 - direct_ms, "ms");
    r.set("serve.gen_lag_p99_ms", quantile(gen_lag, 0.99), "ms");
    r.set("serve.shed", static_cast<double>(stats.shed), "count");
    uint64_t degraded = 0;
    for (const auto &[priority, cls] : stats.by_priority)
        degraded += cls.degraded;
    r.set("serve.degraded", static_cast<double>(degraded), "count");
}

/** The session of a traced run, or null. It only collects the per-node
 * timers tryRun records. Its tracer is switched off: an active tracer
 * records process-wide, and every activation makes each thread
 * allocate a fresh event ring on its next event. */
std::unique_ptr<mixgemm::TraceSession>
tracingSession(const Options &o)
{
    if (!o.trace)
        return nullptr;
    auto session = std::make_unique<mixgemm::TraceSession>();
    session->tracer().deactivate();
    return session;
}

/** Run one traced image and account it. */
ImageStats
tracedImage(Runner &runner, size_t idx, TimingBackend &tb,
            const TraceContext &trace, uint64_t &fp)
{
    ImageStats s;
    const auto pack0 = mixgemm::packCounters();
    const uint64_t bs0 = tb.inner().totalBsIp();
    tb.reset();
    tb.setSpans(trace.spans, trace.id, trace.tid);
    const uint64_t start = nowNs();
    fp = runner.run(idx, tb, &s, &trace);
    const uint64_t dur = nowNs() - start;
    tb.setSpans(nullptr, 0, 0);
    trace.spans->add(Span{strCat("image ", trace.id), "image", trace.id,
                          trace.tid, start, dur});
    const auto pack = packDelta(pack0, mixgemm::packCounters());
    s.total_ms = toMs(dur);
    s.gemm_ms = toMs(tb.busy_ns);
    s.calls = tb.calls;
    s.macs = tb.macs;
    s.bs_ip = tb.inner().totalBsIp() - bs0;
    s.a_packs = pack.a_packs;
    s.b_packs = pack.b_packs;
    s.cluster_builds = pack.cluster_builds;
    return s;
}

/** Per-layer metrics: medians over the traced images. */
void
setLayerMetrics(RunResult &r, const std::vector<ImageStats> &one,
                const std::vector<ImageStats> &multi)
{
    auto med = [](const std::vector<ImageStats> &v, auto field) {
        std::vector<double> xs;
        for (const ImageStats &s : v)
            xs.push_back(static_cast<double>(field(s)));
        return median(std::move(xs));
    };
    r.set("runtime.conv_ms", med(one, [](auto &s) { return s.conv_ms; }),
          "ms");
    r.set("runtime.depthwise_ms",
          med(one, [](auto &s) { return s.depthwise_ms; }), "ms");
    r.set("runtime.elementwise_ms",
          med(one, [](auto &s) { return s.elementwise_ms; }), "ms");
    r.set("runtime.linear_ms", med(one, [](auto &s) { return s.linear_ms; }),
          "ms");
    r.set("runtime.self_ms", med(one, [](auto &s) { return s.selfMs(); }),
          "ms");
    r.set("runtime.self_share",
          med(one, [](auto &s) { return s.selfMs() / s.nodeMs(); }), "share");
    r.set("gemm.calls", med(one, [](auto &s) { return s.calls; }), "count");
    const double busy1 = med(one, [](auto &s) { return s.gemm_ms; });
    r.set("gemm.busy_ms", busy1, "ms");
    r.set("gemm.gops",
          med(one, [](auto &s) { return 2e-6 * s.macs / s.gemm_ms; }),
          "Gop/s");
    r.set("gemm.ops", med(one, [](auto &s) { return 2 * s.macs; }), "count");
    r.set("gemm.bs_ip", med(one, [](auto &s) { return s.bs_ip; }), "count");
    const double busy_mt = med(multi, [](auto &s) { return s.gemm_ms; });
    r.set("gemm.mt_speedup", busy_mt > 0 ? busy1 / busy_mt : 0.0, "x");
    r.set("pack.a_packs", med(one, [](auto &s) { return s.a_packs; }),
          "count");
    r.set("pack.b_packs", med(one, [](auto &s) { return s.b_packs; }),
          "count");
    r.set("pack.cluster_builds",
          med(one, [](auto &s) { return s.cluster_builds; }), "count");
}

void
writeSpans(const Options &options, const SpanLog &spans, RunResult &r)
{
    ::mkdir(options.trace_dir.c_str(), 0755);
    const std::string path = strCat(options.trace_dir, "/", options.workload,
                                    "-seed", options.seed, ".trace.json");
    if (!spans.write(path))
        r.fail(strCat("cannot write the span file ", path));
    else
        std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                     path.c_str());
}

void
reportChecks(const std::string &what, const CheckTotals &t)
{
    std::fprintf(stderr,
                 "%s: %llu input codes checked, %.4f%% clamped; worst node "
                 "error %.3g steps, worst chain error %.3g steps\n",
                 what.c_str(), static_cast<unsigned long long>(t.codes),
                 t.codes ? 100.0 * t.clamped / t.codes : 0.0,
                 t.max_node_steps, t.max_chain_steps);
}

double
elapsedS(const Options &o)
{
    return static_cast<double>(nowNs() - o.process_start_ns) / 1e9;
}

// ---------------------------------------------------- network workloads

/**
 * Shared body of resnet18-layers and mobilenet-v1. Image latencies come
 * from single images at 1 and at T GEMM threads. The "requests" of a
 * network workload are the images of a closed loop of T concurrent
 * clients. With @p served (a whole-network chain), an InferenceServer
 * with T workers runs the clients' trunks and each client pools and
 * runs the fc on the response; otherwise each client runs its images
 * itself at one GEMM thread.
 */
RunResult
runNetwork(const Options &o, Runner &runner, Chain *served = nullptr)
{
    RunResult r;
    const unsigned T = mtThreads();
    MixGemmBackend b1(1), bT(T);
    TimingBackend tb1(b1), tbT(bT);
    std::vector<std::unique_ptr<MixGemmBackend>> cb;
    std::vector<std::unique_ptr<TimingBackend>> ctb;
    for (unsigned j = 0; j < T; ++j) {
        cb.push_back(std::make_unique<MixGemmBackend>(1));
        ctb.push_back(std::make_unique<TimingBackend>(*cb.back()));
    }
    std::unique_ptr<Served> server;
    if (served)
        server = std::make_unique<Served>(served->trunk(), T);
    // Outputs seen per input: every run of one input must agree.
    std::vector<std::vector<uint64_t>> seen(kNetworkPool);
    std::mutex seen_mutex;
    auto note = [&](size_t idx, uint64_t fp) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen[idx].push_back(fp);
    };

    // One client image: through the server when there is one, with the
    // report kept for the serve metrics.
    std::atomic<uint64_t> resolved{0};
    auto clientImage = [&](size_t idx, TimingBackend &tb,
                           mixgemm::RequestReport *report) {
        if (!server)
            return runner.run(idx, tb, nullptr, nullptr);
        mixgemm::ServeResponse resp = server->submit(served->image(idx)).get();
        ++resolved;
        if (!resp.status.ok())
            throw std::runtime_error("request failed: " +
                                     resp.status.toString());
        *report = resp.report;
        return served->finish(std::move(resp.output), tb);
    };

    // Closed-loop burst: T clients run images back to back, each client
    // at least one image, until @p seconds have passed. Client j's image
    // count and busy time go to n[j] and t[j]: the throughput is the sum
    // of the client rates, so a client that finished early and waits for
    // the others does not count as idle.
    std::vector<double> req;
    std::vector<ServeSample> serve_samples;
    std::vector<double> client_n(T), client_s(T);
    ThreadFailures failures;
    SpanLog spans;
    auto burst = [&](size_t round, double seconds) {
        std::vector<std::vector<double>> lat(T);
        std::vector<std::vector<ServeSample>> samples(T);
        std::vector<std::thread> clients;
        const uint64_t start = nowNs();
        const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
        for (unsigned j = 0; j < T; ++j)
            clients.emplace_back([&, j] {
                failures.guard([&] {
                    size_t k = round + j;
                    do {
                        mixgemm::RequestReport rep;
                        const uint64_t s0 = nowNs();
                        note(k % kNetworkPool,
                             clientImage(k % kNetworkPool, *ctb[j], &rep));
                        const uint64_t s1 = nowNs();
                        lat[j].push_back(toMs(s1 - s0));
                        if (server) {
                            samples[j].push_back(
                                {toMs(s1 - s0),
                                 toMs(rep.start_ns - rep.submit_ns),
                                 toMs(rep.done_ns - rep.start_ns)});
                            if (o.trace)
                                spans.add(Span{strCat("request ", rep.seq),
                                               "request", rep.seq,
                                               10u + rep.worker, s0,
                                               s1 - s0});
                        }
                        ++k;
                    } while (nowNs() < stop);
                });
                client_n[j] += static_cast<double>(lat[j].size());
                client_s[j] += static_cast<double>(nowNs() - start) / 1e9;
            });
        for (auto &t : clients)
            t.join();
        for (unsigned j = 0; j < T; ++j) {
            req.insert(req.end(), lat[j].begin(), lat[j].end());
            serve_samples.insert(serve_samples.end(), samples[j].begin(),
                                 samples[j].end());
            r.attempted += lat[j].size();
        }
    };

    // Warm-up: one image at 1 and one at T GEMM threads, which starts
    // the library's thread pool. The client backends hold no state of
    // their own, so they need none; a concurrent warm-up burst would
    // only add the host's noise to setup_s. A server gets T requests at
    // once, one per worker: a worker's first request is slow.
    note(0, runner.run(0, tb1, nullptr, nullptr));
    note(0, runner.run(0, tbT, nullptr, nullptr));
    r.attempted += 2;
    if (server) {
        std::vector<std::future<mixgemm::ServeResponse>> warm;
        for (unsigned j = 0; j < T; ++j)
            warm.push_back(server->submit(served->image(0)));
        for (auto &f : warm) {
            mixgemm::ServeResponse resp = f.get();
            ++resolved;
            ++r.attempted;
            if (!resp.status.ok())
                mixgemm::fatal("warm-up request: " + resp.status.toString());
            note(0, served->finish(std::move(resp.output), tb1));
        }
    }
    r.set("setup_s", elapsedS(o), "s");

    std::vector<ImageStats> traced1, tracedT;
    std::vector<double> untraced1;
    std::unique_ptr<mixgemm::TraceSession> session = tracingSession(o);
    uint64_t next_id = 0;

    // Untraced rounds: one image at 1 GEMM thread, one at T threads and
    // a closed-loop burst; interleaving them spreads the host's slow
    // phases over every metric alike. Traced rounds: one untraced and two
    // traced images, and a burst when there is a server to trace.
    std::vector<double> lat1, latT;
    const uint64_t end = nowNs() + static_cast<uint64_t>(o.seconds * 1e9);
    for (size_t round = 0; nowNs() < end || round == 0; ++round) {
        const size_t idx = round % kNetworkPool;
        uint64_t start = nowNs();
        note(idx, runner.run(idx, tb1, nullptr, nullptr));
        const double u1 = toMs(nowNs() - start);
        if (tb1.image_macs != runner.expectedMacs())
            r.fail(strCat("one image ran ", tb1.image_macs,
                          " MACs, the network has ",
                          runner.expectedMacs()));
        if (!o.trace) {
            lat1.push_back(u1);
            start = nowNs();
            note(idx, runner.run(idx, tbT, nullptr, nullptr));
            latT.push_back(toMs(nowNs() - start));
            r.attempted += 2;
            burst(round, kBurstSeconds);
        } else {
            untraced1.push_back(u1);
            uint64_t fp = 0;
            traced1.push_back(tracedImage(
                runner, idx, tb1, {&spans, session.get(), ++next_id, 1}, fp));
            note(idx, fp);
            tracedT.push_back(tracedImage(
                runner, idx, tbT, {&spans, session.get(), ++next_id, 2}, fp));
            note(idx, fp);
            r.attempted += 3;
            if (server)
                burst(round, kBurstSeconds);
        }
    }
    failures.report(r);
    r.set("peak_rss_mb", peakRssMb(), "MB");

    if (!o.trace) {
        // Image latencies are means: the host runs these networks at two
        // speeds, in phases of seconds, and a median of some 20 images
        // jumps between the two as the share of slow phases nears half.
        r.set("image_latency_mean_ms", mean(lat1), "ms");
        r.set("image_latency_mt_mean_ms", mean(latT), "ms");
        r.set("request_latency_p90_ms", quantile(req, 0.9), "ms");
        double rate = 0;
        for (unsigned j = 0; j < T; ++j)
            rate += client_n[j] / client_s[j];
        r.set("throughput_rps", rate, "req/s");
    } else {
        setLayerMetrics(r, traced1, tracedT);
        std::vector<double> t1, trunk1;
        for (const auto &s : traced1) {
            t1.push_back(s.total_ms);
            trunk1.push_back(s.nodeMs() - s.linear_ms);
        }
        r.set("trace.overhead_share", median(t1) / median(untraced1) - 1.0,
              "share");
        // The server runs the trunk only; its direct counterpart is the
        // trunk's node time at one GEMM thread.
        if (server)
            setServeMetrics(r, serve_samples, median(trunk1), {},
                            server->storeLoadMs(), server->stats());
        writeSpans(o, spans, r);
    }
    if (server)
        Served::checkAccounting(server->stats(), resolved, r);

    // Checks, after the RSS reading: every input node by node against
    // the reference, and every measured output equal to the checked one.
    CheckTotals totals;
    for (size_t idx = 0; idx < kNetworkPool; ++idx) {
        const uint64_t fp = runner.check(idx, tb1, r, totals);
        for (const uint64_t s : seen[idx])
            if (s != fp) {
                r.fail(strCat("input ", idx, ": a measured run (1 or ", T,
                              " threads, or the closed loop) gave other "
                              "outputs "
                              "than the checked run"));
                break;
            }
    }
    reportChecks(o.workload, totals);
    return r;
}

// --------------------------------------------------------------- serve

/// Open-loop arrival rate (requests/s) and closed-loop concurrency of
/// serve-small-cnn; server workers and GEMM threads per worker.
constexpr double kArrivalRate = 200.0;
constexpr unsigned kClosedClients = 4;
constexpr unsigned kServeWorkers = 2;
/// Length of one round of direct, open-loop and closed-loop blocks.
constexpr double kServeRoundSeconds = 1.0;

struct Completed
{
    uint64_t due_ns = 0;
    size_t input = 0;
    std::future<mixgemm::ServeResponse> future;
};

} // namespace

RunResult
runResnetLayers(const Options &o)
{
    LayerSweep runner(o.data_dir, o.seed);
    return runNetwork(o, runner);
}

RunResult
runMobilenet(const Options &o)
{
    const auto model = mixgemm::mobileNetV1();
    const uint64_t fc_macs = model.layers.back().macs();
    Chain runner(o.data_dir, "mobilenet_v1.trunk", "mobilenet_v1.fc", o.seed,
                 kNetworkPool, model.totalMacs() - fc_macs);
    return runNetwork(o, runner, &runner);
}

RunResult
runServe(const Options &o)
{
    RunResult r;
    const unsigned T = mtThreads();
    Chain chain(o.data_dir, "small_cnn", "", o.seed, kServePool, 0);

    Served server(chain.trunk(), kServeWorkers);

    MixGemmBackend b1(1), bT(T);
    TimingBackend tb1(b1), tbT(bT);
    std::vector<Tensor> ref_logits;
    CheckTotals totals;

    uint64_t resolved = 0;
    ThreadFailures failures;
    auto checkResponse = [&](size_t input, mixgemm::ServeResponse &resp) {
        ++resolved;
        if (!resp.status.ok()) {
            ++r.failed;
            r.fail("request failed: " + resp.status.toString());
            return false;
        }
        double worst = 0;
        if (!withinSteps(resp.output, ref_logits[input].flat(),
                         kNodeSteps, worst))
            r.fail(strCat("response for input ", input,
                          " differs from the reference"));
        return true;
    };
    auto request = [&](size_t input) {
        return server.submit(chain.image(input));
    };

    // Reference logits of every input (cheap: the network is small),
    // needed to check responses as they arrive.
    for (size_t i = 0; i < kServePool; ++i)
        ref_logits.push_back(chain.referenceLogits(i, &totals));
    // Warm-up: direct runs and one request per input.
    chain.run(0, tb1, nullptr, nullptr);
    chain.run(0, tbT, nullptr, nullptr);
    for (size_t i = 0; i < kServePool; ++i) {
        auto resp = request(i).get();
        checkResponse(i, resp);
        ++r.attempted;
    }
    r.set("setup_s", elapsedS(o), "s");

    SpanLog spans;
    std::unique_ptr<mixgemm::TraceSession> session = tracingSession(o);
    uint64_t next_id = 0;
    std::vector<double> lat1, latT, untraced1;
    std::vector<ImageStats> traced1, tracedT;
    std::vector<std::vector<uint64_t>> seen(kServePool);

    // Direct block: the same graph without the server.
    size_t direct_round = 0;
    auto directBlock = [&](double seconds) {
        const uint64_t stop = nowNs() + static_cast<uint64_t>(seconds * 1e9);
        do {
            const size_t idx = direct_round++ % kServePool;
            uint64_t start = nowNs();
            seen[idx].push_back(chain.run(idx, tb1, nullptr, nullptr));
            lat1.push_back(toMs(nowNs() - start));
            if (!o.trace) {
                start = nowNs();
                seen[idx].push_back(chain.run(idx, tbT, nullptr, nullptr));
                latT.push_back(toMs(nowNs() - start));
            } else {
                uint64_t fp = 0;
                traced1.push_back(tracedImage(
                    chain, idx, tb1, {&spans, session.get(), ++next_id, 1},
                    fp));
                seen[idx].push_back(fp);
                tracedT.push_back(tracedImage(
                    chain, idx, tbT, {&spans, session.get(), ++next_id, 2},
                    fp));
                seen[idx].push_back(fp);
            }
            r.attempted += 2 + o.trace;
        } while (nowNs() < stop);
    };

    // Open-loop block: Poisson arrivals from one generator thread, a
    // collector resolving the futures; latency counts from each
    // request's due time. The block ends when every request is back.
    std::vector<ServeSample> open;
    std::vector<double> gen_lag;
    std::mt19937_64 gen(o.seed ^ 0x5e7ull);
    std::exponential_distribution<double> gap(kArrivalRate / 1e9);
    size_t arrivals = 0;
    auto openBlock = [&](double seconds) {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Completed> inflight;
        bool done = false;
        std::thread collector([&] { failures.guard([&] {
            for (;;) {
                Completed c;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return done || !inflight.empty(); });
                    if (inflight.empty())
                        return;
                    c = std::move(inflight.front());
                    inflight.pop_front();
                }
                auto resp = c.future.get();
                if (!checkResponse(c.input, resp))
                    continue;
                const auto &rep = resp.report;
                open.push_back({toMs(rep.done_ns - c.due_ns),
                                toMs(rep.start_ns - rep.submit_ns),
                                toMs(rep.done_ns - rep.start_ns)});
                if (o.trace) {
                    spans.add(Span{strCat("request ", rep.seq), "request",
                                   rep.seq, 10u + rep.worker, c.due_ns,
                                   rep.done_ns - c.due_ns});
                    spans.add(Span{"service", "request", rep.seq,
                                   10u + rep.worker, rep.start_ns,
                                   rep.done_ns - rep.start_ns});
                }
            }
        }); });
        const uint64_t stop = nowNs() + static_cast<uint64_t>(seconds * 1e9);
        for (uint64_t due = nowNs();;) {
            due += static_cast<uint64_t>(gap(gen));
            if (due >= stop)
                break;
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due)));
            const uint64_t submit = nowNs();
            gen_lag.push_back(toMs(submit > due ? submit - due : 0));
            const size_t input = arrivals++ % kServePool;
            Completed c{due, input, request(input)};
            ++r.attempted;
            {
                std::lock_guard<std::mutex> lock(mu);
                inflight.push_back(std::move(c));
            }
            cv.notify_one();
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            done = true;
        }
        cv.notify_one();
        collector.join();
    };

    // Closed-loop block: a fixed number of outstanding requests.
    uint64_t closed_done = 0;
    double closed_s = 0;
    auto closedBlock = [&](double seconds) {
        std::mutex mu;
        const uint64_t start = nowNs();
        const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClosedClients; ++c)
            clients.emplace_back([&, c] { failures.guard([&] {
                for (size_t i = c; nowNs() < stop; i += kClosedClients) {
                    auto resp = request(i % kServePool).get();
                    std::lock_guard<std::mutex> lock(mu);
                    ++r.attempted;
                    if (checkResponse(i % kServePool, resp))
                        ++closed_done;
                }
            }); });
        for (auto &t : clients)
            t.join();
        closed_s += static_cast<double>(nowNs() - start) / 1e9;
    };

    // One-second rounds of the three blocks: interleaving them spreads
    // the host's slow phases over every metric alike.
    const uint64_t end = nowNs() + static_cast<uint64_t>(o.seconds * 1e9);
    for (size_t round = 0; nowNs() < end || round == 0; ++round) {
        directBlock(0.2 * kServeRoundSeconds);
        openBlock(0.5 * kServeRoundSeconds);
        closedBlock(0.3 * kServeRoundSeconds);
    }
    r.set("peak_rss_mb", peakRssMb(), "MB");

    failures.report(r);
    if (!o.trace) {
        std::vector<double> lat;
        for (const auto &s : open)
            lat.push_back(s.latency_ms);
        r.set("image_latency_mean_ms", mean(lat1), "ms");
        r.set("image_latency_mt_mean_ms", mean(latT), "ms");
        r.set("request_latency_p90_ms", quantile(lat, 0.9), "ms");
        r.set("throughput_rps", closed_done / closed_s, "req/s");
        if (open.size() < 1000)
            r.fail(strCat("only ", open.size(),
                          " open-loop samples; the tail needs 1000"));
    } else {
        setLayerMetrics(r, traced1, tracedT);
        std::vector<double> t1;
        for (const auto &s : traced1)
            t1.push_back(s.total_ms);
        r.set("trace.overhead_share", median(t1) / median(lat1) - 1.0,
              "share");
        setServeMetrics(r, open, median(lat1), gen_lag, server.storeLoadMs(),
                        server.stats());
        writeSpans(o, spans, r);
    }
    Served::checkAccounting(server.stats(), resolved, r);

    // Direct runs: node by node against the reference, and every
    // measured output equal to the checked one.
    for (size_t idx = 0; idx < kServePool; ++idx) {
        const uint64_t fp = chain.check(idx, tb1, r, totals);
        for (const uint64_t s : seen[idx])
            if (s != fp) {
                r.fail(strCat("input ", idx, ": a direct run gave other "
                                             "outputs than the checked run"));
                break;
            }
    }
    reportChecks(o.workload, totals);
    return r;
}

} // namespace e2e
