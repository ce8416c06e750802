/**
 * @file
 * The driver's own reference for every node kind: Eq. 1 quantization,
 * direct integer convolution (no im2row), integer linear layers and
 * the elementwise ops. Accumulation is exact in int64; requantization
 * follows the runtime's documented formula s_a·s_w·acc + bias.
 */

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "driver.h"

namespace e2e
{

int32_t
refQuantize(double x, const QuantParams &params)
{
    const double q = std::nearbyint(x / params.scale);
    return static_cast<int32_t>(std::clamp(
        q, static_cast<double>(params.qmin()),
        static_cast<double>(params.qmax())));
}

int32_t
consumerCode(double v, bool relu, const QuantParams &consumer)
{
    return refQuantize(relu ? std::max(v, 0.0) : v, consumer);
}

namespace
{

std::vector<int32_t>
quantizeAll(const Tensor &t, const QuantParams &params, RefNode &out)
{
    std::vector<int32_t> codes(t.size());
    const double lo = params.qmin();
    const double hi = params.qmax();
    for (size_t i = 0; i < t.size(); ++i) {
        const double q = std::nearbyint(t.data()[i] / params.scale);
        out.clamped += q < lo || q > hi;
        codes[i] = static_cast<int32_t>(std::clamp(q, lo, hi));
    }
    out.codes += t.size();
    return codes;
}

ConvSpec
specFor(const QNode &node, const Tensor &input)
{
    ConvSpec spec = node.spec;
    spec.in_h = static_cast<unsigned>(input.dim(2));
    spec.in_w = static_cast<unsigned>(input.dim(3));
    if (input.dim(1) != spec.in_c)
        mixgemm::fatal("reference: input channels do not match the node");
    return spec;
}

/** Direct convolution: acc[(y * ow + x) * n + o], 32-bit partial sums
 * widened per output pixel (every layer here fits 32 bits per pixel). */
std::vector<int64_t>
convAcc(const std::vector<int32_t> &codes, const ConvSpec &s,
        const std::vector<int32_t> &w)
{
    const unsigned oh = s.outH(), ow = s.outW(), n = s.out_c;
    std::vector<int64_t> acc(uint64_t{oh} * ow * n);
    std::vector<int32_t> sum(n);
    for (unsigned y = 0; y < oh; ++y)
        for (unsigned x = 0; x < ow; ++x) {
            std::fill(sum.begin(), sum.end(), 0);
            uint64_t row = 0;
            for (unsigned c = 0; c < s.in_c; ++c)
                for (unsigned ky = 0; ky < s.kh; ++ky)
                    for (unsigned kx = 0; kx < s.kw; ++kx, ++row) {
                        const long iy = long(y) * s.stride + ky - s.pad;
                        const long ix = long(x) * s.stride + kx - s.pad;
                        if (iy < 0 || iy >= long(s.in_h) || ix < 0 ||
                            ix >= long(s.in_w))
                            continue;
                        const int32_t a =
                            codes[(uint64_t{c} * s.in_h + iy) * s.in_w + ix];
                        if (a == 0)
                            continue;
                        const int32_t *wr = w.data() + row * n;
                        for (unsigned o = 0; o < n; ++o)
                            sum[o] += a * wr[o];
                    }
            int64_t *dst = acc.data() + (uint64_t{y} * ow + x) * n;
            std::copy(sum.begin(), sum.end(), dst);
        }
    return acc;
}

} // namespace

RefNode
refNode(const QNode &node, const Tensor &input)
{
    RefNode out;
    const double requant = node.a_params.scale * node.w_params.scale;
    switch (node.kind) {
      case QNode::Kind::kConv: {
        const ConvSpec s = specFor(node, input);
        const auto codes = quantizeAll(input, node.a_params, out);
        auto acc = convAcc(codes, s, node.weights_q);
        const unsigned oh = s.outH(), ow = s.outW(), n = s.out_c;
        out.output = Tensor({1, n, oh, ow});
        for (unsigned o = 0; o < n; ++o)
            for (uint64_t p = 0; p < uint64_t{oh} * ow; ++p)
                out.output.data()[o * uint64_t{oh} * ow + p] =
                    requant * static_cast<double>(acc[p * n + o]) +
                    node.bias[o];
        out.acc.push_back(std::move(acc));
        break;
      }
      case QNode::Kind::kDepthwise: {
        const ConvSpec s = specFor(node, input);
        const auto codes = quantizeAll(input, node.a_params, out);
        const unsigned oh = s.outH(), ow = s.outW();
        const uint64_t k = uint64_t{s.kh} * s.kw;
        out.output = Tensor({1, s.out_c, oh, ow});
        for (unsigned c = 0; c < s.in_c; ++c) {
            std::vector<int64_t> acc(uint64_t{oh} * ow);
            const int32_t *wc = node.weights_q.data() + c * k;
            const int32_t *plane =
                codes.data() + uint64_t{c} * s.in_h * s.in_w;
            for (unsigned y = 0; y < oh; ++y)
                for (unsigned x = 0; x < ow; ++x) {
                    int64_t sum = 0;
                    for (unsigned ky = 0; ky < s.kh; ++ky)
                        for (unsigned kx = 0; kx < s.kw; ++kx) {
                            const long iy = long(y) * s.stride + ky - s.pad;
                            const long ix = long(x) * s.stride + kx - s.pad;
                            if (iy >= 0 && iy < long(s.in_h) && ix >= 0 &&
                                ix < long(s.in_w))
                                sum += int64_t{plane[iy * s.in_w + ix]} *
                                       wc[ky * s.kw + kx];
                        }
                    acc[uint64_t{y} * ow + x] = sum;
                }
            double *dst = out.output.data() + uint64_t{c} * oh * ow;
            for (uint64_t p = 0; p < acc.size(); ++p)
                dst[p] = requant * static_cast<double>(acc[p]) +
                         node.bias[c];
            out.acc.push_back(std::move(acc));
        }
        break;
      }
      case QNode::Kind::kLinear: {
        const uint64_t k = node.spec.in_c, n = node.spec.out_c;
        if (input.size() != k)
            mixgemm::fatal("reference: linear input size mismatch");
        const auto codes = quantizeAll(input, node.a_params, out);
        std::vector<int64_t> acc(n, 0);
        for (uint64_t i = 0; i < k; ++i)
            if (codes[i] != 0)
                for (uint64_t o = 0; o < n; ++o)
                    acc[o] += int64_t{codes[i]} * node.weights_q[i * n + o];
        out.output = Tensor({1, n});
        for (uint64_t o = 0; o < n; ++o)
            out.output.data()[o] =
                requant * static_cast<double>(acc[o]) + node.bias[o];
        out.acc.push_back(std::move(acc));
        break;
      }
      case QNode::Kind::kRelu:
        out.output = input;
        for (double &v : out.output.flat())
            v = std::max(v, 0.0);
        break;
      case QNode::Kind::kMaxPool2: {
        const size_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
        out.output = Tensor({1, c, h / 2, w / 2});
        for (size_t cc = 0; cc < c; ++cc)
            for (size_t y = 0; y < h / 2; ++y)
                for (size_t x = 0; x < w / 2; ++x) {
                    const double *p = input.data() + (cc * h + 2 * y) * w +
                                      2 * x;
                    out.output.data()[(cc * (h / 2) + y) * (w / 2) + x] =
                        std::max({p[0], p[1], p[w], p[w + 1]});
                }
        break;
      }
      case QNode::Kind::kFlatten:
        out.output = Tensor({1, input.size()},
                            std::vector<double>(input.flat().begin(),
                                                input.flat().end()));
        break;
    }
    return out;
}

} // namespace e2e
