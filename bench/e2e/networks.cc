/**
 * @file
 * The benchmark's networks: ResNet-18's GEMM layers (one graph file
 * per layer), the MobileNet-V1 trunk plus its fc, and a small chain
 * CNN for the serving workload. Geometry comes from dnn/models; weights
 * are deterministic synthetic codes (independent of the run seed), and
 * chain networks get their activation scales from a calibration pass
 * over the driver's own reference so that few codes clamp.
 *
 * Graph files go through QuantizedGraph::serialize and are loaded back
 * with QuantizedGraph::fromFile. The file format carries no stride, so
 * each graph file has a small ".geom" sidecar and loadNetwork() puts
 * the strides back.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.h"
#include "dnn/models.h"
#include "driver.h"

namespace e2e
{

using mixgemm::fatal;
using mixgemm::strCat;

namespace
{

/// Seed of the synthetic weights and of the calibration image: fixed,
/// so every run seed sees the same model (only inputs vary).
constexpr uint64_t kWeightSeed = 0x6d69786765;
constexpr uint64_t kCalibrationSeed = 0xca1b;
/// Scale of the 8-bit input image codes (a non-dyadic value, so
/// requantized products rarely land exactly on a rounding tie).
constexpr double kImageScale = 0.0172;
constexpr double kWeightScale = 0.0211;
/// Calibration keeps this quantile of the nonzero inputs unclamped.
constexpr double kCalibrationQuantile = 0.999;

uint64_t
nameHash(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name)
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    return h;
}

/** A GEMM node with synthetic weights and bias. */
QNode
gemmNode(QNode::Kind kind, const ConvSpec &spec, unsigned a_bits,
         bool a_signed, unsigned w_bits, Rng &rng)
{
    QNode node;
    node.kind = kind;
    node.spec = spec;
    node.a_params = QuantParams{kImageScale, 0, a_bits, a_signed};
    node.w_params = QuantParams{kWeightScale, 0, w_bits, true};
    uint64_t count = spec.gemmK() * spec.gemmN() * spec.groups;
    if (kind == QNode::Kind::kLinear)
        count = uint64_t{spec.in_c} * spec.out_c;
    node.weights_q.resize(count);
    for (int32_t &w : node.weights_q)
        w = rng.range(node.w_params.qmin(), node.w_params.qmax());
    node.bias.assign(spec.out_c, 0.0);
    return node;
}

QNode
simpleNode(QNode::Kind kind)
{
    QNode node;
    node.kind = kind;
    return node;
}

bool
isGemm(const QNode &node)
{
    return node.kind == QNode::Kind::kConv ||
           node.kind == QNode::Kind::kDepthwise ||
           node.kind == QNode::Kind::kLinear;
}

/** Scale that keeps kCalibrationQuantile of the nonzero inputs inside
 * the clamp range of @p params. */
double
calibratedScale(const Tensor &x, const QuantParams &params)
{
    std::vector<double> mags;
    mags.reserve(x.size());
    for (const double v : x.flat())
        if (v != 0.0 && (params.is_signed || v > 0.0))
            mags.push_back(std::abs(v));
    const double top = quantile(std::move(mags), kCalibrationQuantile);
    return top > 0.0 ? top / params.qmax() : 1.0;
}

/** Calibrate the activation scale of every GEMM node but the first
 * (whose input is the image at kImageScale) on one reference pass;
 * returns the output of the last node. */
Tensor
calibrate(std::vector<QNode> &nodes, Tensor x)
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (i > 0 && isGemm(nodes[i]))
            nodes[i].a_params.scale =
                calibratedScale(x, nodes[i].a_params);
        x = refNode(nodes[i], x).output;
    }
    return x;
}

void
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    const std::string tmp = strCat(path, ".tmp", ::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!os)
            fatal(strCat("cannot write ", tmp));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal(strCat("cannot rename ", tmp, " to ", path));
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Write a network's graph file and its geometry sidecar. The graph
 * file is written last, so its presence means the pair is complete. */
void
writeNetwork(const std::string &dir, const std::string &name,
             const std::vector<QNode> &nodes,
             const std::vector<size_t> &input_shape, double input_scale)
{
    std::ostringstream geom;
    geom << "input " << input_shape[1] << ' ' << input_shape[2] << ' '
         << input_shape[3] << ' ';
    geom.precision(17);
    geom << input_scale << '\n' << "strides " << nodes.size();
    for (const QNode &n : nodes)
        geom << ' ' << (isGemm(n) ? n.spec.stride : 1);
    geom << '\n';
    writeFileAtomic(graphPath(dir, name) + ".geom", geom.str());
    writeFileAtomic(graphPath(dir, name), QuantizedGraph(nodes).serialize());
}

// ------------------------------------------------------------ ResNet-18

struct LayerPrecision
{
    unsigned a_bits;
    bool a_signed;
    unsigned w_bits;
};

/** Per-layer precision: first and last layer a8-w8 as the paper keeps
 * them, sub-byte configs per stage elsewhere. Activations after a ReLU
 * are unsigned. */
LayerPrecision
resnetPrecision(const mixgemm::LayerSpec &layer)
{
    if (layer.is_first)
        return {8, true, 8};
    if (layer.is_last)
        return {8, false, 8};
    const std::string &n = layer.name;
    if (n.rfind("layer1.", 0) == 0)
        return {4, false, 4};
    if (n.rfind("layer2.", 0) == 0)
        return {6, false, 4};
    if (n.rfind("layer3.", 0) == 0)
        return {4, false, 2};
    return {2, false, 2};
}

void
prepareResnet(const std::string &dir)
{
    const auto model = mixgemm::resNet18();
    for (size_t i = 0; i < model.layers.size(); ++i) {
        const auto &layer = model.layers[i];
        const std::string name = "resnet18." + layer.name;
        if (fileExists(graphPath(dir, name)))
            continue;
        const LayerPrecision p = resnetPrecision(layer);
        Rng rng(kWeightSeed ^ nameHash(name));
        const bool fc = layer.conv.in_h == 1 && layer.conv.kh == 1;
        QNode node = gemmNode(fc ? QNode::Kind::kLinear : QNode::Kind::kConv,
                              layer.conv, p.a_bits, p.a_signed, p.w_bits,
                              rng);
        // Each layer runs on its own synthetic input: a fixed,
        // non-dyadic activation scale per layer.
        node.a_params.scale = kImageScale * (1.0 + 0.013 * i);
        writeNetwork(dir, name, {node}, resnetLayerInputShape(i),
                     node.a_params.scale);
    }
}

// ---------------------------------------------------------- MobileNet-V1

void
prepareMobilenet(const std::string &dir)
{
    if (fileExists(graphPath(dir, "mobilenet_v1.trunk")) &&
        fileExists(graphPath(dir, "mobilenet_v1.fc")))
        return;
    const auto model = mixgemm::mobileNetV1();
    Rng rng(kWeightSeed ^ nameHash(model.name));
    std::vector<QNode> trunk;
    QNode fc;
    for (const auto &layer : model.layers) {
        if (layer.is_last) {
            fc = gemmNode(QNode::Kind::kLinear, layer.conv, 8, false, 8,
                          rng);
            continue;
        }
        const bool dw = layer.conv.groups > 1;
        trunk.push_back(gemmNode(
            dw ? QNode::Kind::kDepthwise : QNode::Kind::kConv, layer.conv,
            layer.is_first ? 8 : 4, layer.is_first, layer.is_first ? 8 : 4,
            rng));
        trunk.push_back(simpleNode(QNode::Kind::kRelu));
    }
    const std::vector<size_t> shape = {1, 3, 224, 224};
    Rng calib(kCalibrationSeed);
    const Tensor pooled = globalAvgPool(
        calibrate(trunk, makeImage(shape, kImageScale, calib)));
    fc.a_params.scale = calibratedScale(pooled, fc.a_params);
    writeNetwork(dir, "mobilenet_v1.fc", {fc}, {1, 1024, 1, 1},
                 fc.a_params.scale);
    writeNetwork(dir, "mobilenet_v1.trunk", trunk, shape, kImageScale);
}

// ------------------------------------------------------------ small CNN

ConvSpec
convSpec(unsigned in_c, unsigned out_c, unsigned k, unsigned pad,
         unsigned groups = 1)
{
    ConvSpec s;
    s.in_c = in_c;
    s.out_c = out_c;
    s.kh = s.kw = k;
    s.pad = pad;
    s.groups = groups;
    return s;
}

void
prepareSmallCnn(const std::string &dir)
{
    if (fileExists(graphPath(dir, "small_cnn")))
        return;
    using K = QNode::Kind;
    Rng rng(kWeightSeed ^ nameHash("small_cnn"));
    ConvSpec fc_spec = convSpec(1024, 10, 1, 0);
    std::vector<QNode> nodes = {
        gemmNode(K::kConv, convSpec(3, 16, 3, 1), 8, true, 8, rng),
        simpleNode(K::kRelu),
        simpleNode(K::kMaxPool2),
        gemmNode(K::kDepthwise, convSpec(16, 16, 3, 1, 16), 4, false, 4,
                 rng),
        simpleNode(K::kRelu),
        gemmNode(K::kConv, convSpec(16, 32, 1, 0), 4, false, 4, rng),
        simpleNode(K::kRelu),
        simpleNode(K::kMaxPool2),
        gemmNode(K::kConv, convSpec(32, 64, 3, 1), 4, false, 4, rng),
        simpleNode(K::kRelu),
        simpleNode(K::kMaxPool2),
        simpleNode(K::kFlatten),
        gemmNode(K::kLinear, fc_spec, 8, false, 8, rng),
    };
    const std::vector<size_t> shape = {1, 3, 32, 32};
    Rng calib(kCalibrationSeed);
    calibrate(nodes, makeImage(shape, kImageScale, calib));
    writeNetwork(dir, "small_cnn", nodes, shape, kImageScale);
}

} // namespace

std::string
graphPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".qgraph";
}

std::vector<std::string>
resnetLayerNames()
{
    std::vector<std::string> names;
    for (const auto &layer : mixgemm::resNet18().layers)
        names.push_back("resnet18." + layer.name);
    return names;
}

std::vector<size_t>
resnetLayerInputShape(size_t index)
{
    const ConvSpec &s = mixgemm::resNet18().layers.at(index).conv;
    if (s.in_h == 1 && s.kh == 1)
        return {1, s.in_c, 1, 1};
    return {1, s.in_c, s.in_h, s.in_w};
}

void
prepareWorkload(const std::string &workload, const std::string &dir)
{
    ::mkdir(dir.c_str(), 0755);
    if (workload == "resnet18-layers")
        prepareResnet(dir);
    else if (workload == "mobilenet-v1")
        prepareMobilenet(dir);
    else if (workload == "serve-small-cnn")
        prepareSmallCnn(dir);
    else
        fatal(strCat("unknown workload '", workload, "'"));
}

Network
loadNetwork(const std::string &dir, const std::string &name)
{
    Network net;
    net.name = name;
    auto graph = QuantizedGraph::fromFile(graphPath(dir, name));
    if (!graph.ok())
        fatal(strCat("loading ", name, ": ", graph.status().toString()));
    net.graph = std::move(*graph);

    std::ifstream geom(graphPath(dir, name) + ".geom");
    size_t c = 0, h = 0, w = 0, count = 0;
    std::string tag1, tag2;
    geom >> tag1 >> c >> h >> w >> net.input_scale >> tag2 >> count;
    if (!geom || tag1 != "input" || tag2 != "strides" ||
        count != net.graph.nodes().size())
        fatal(strCat("bad geometry sidecar for ", name));
    net.input_shape = {1, c, h, w};
    for (QNode &node : net.graph.nodes())
        geom >> node.spec.stride;
    if (!geom)
        fatal(strCat("truncated geometry sidecar for ", name));
    return net;
}

Tensor
makeImage(const std::vector<size_t> &shape, double scale, Rng &rng)
{
    Tensor t(shape);
    for (double &v : t.flat())
        v = rng.range(-127, 127) * scale;
    return t;
}

Tensor
makeActivation(const std::vector<size_t> &shape, const QuantParams &params,
               Rng &rng)
{
    Tensor t(shape);
    for (double &v : t.flat())
        v = (rng.next() & 1) ? rng.range(1, params.qmax()) * params.scale
                             : 0.0;
    return t;
}

Tensor
globalAvgPool(const Tensor &t)
{
    const size_t c = t.dim(1);
    const size_t hw = t.size() / c;
    Tensor out({1, c});
    for (size_t i = 0; i < c; ++i) {
        double sum = 0.0;
        for (size_t p = 0; p < hw; ++p)
            sum += t.data()[i * hw + p];
        out.data()[i] = sum / static_cast<double>(hw);
    }
    return out;
}

} // namespace e2e
