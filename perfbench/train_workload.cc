/**
 * @file
 * train_table6: the Table VI noise study of the train_on_chip example
 * -- the small ResNet trained on the synthetic 6-class task for 12
 * epochs, three times: noise-free, weight noise sigma 0.05 (the WS
 * hardware) and activation noise sigma 0.05 (INCA). The seed picks the
 * dataset, the weight initialisation and the training shuffle.
 *
 * The layers are timed from outside the library: the traced pass
 * builds makeSmallResNet's architecture itself with every module in a
 * timing wrapper (same constructors, same RNG draw order) and trains
 * it through the real nn::train, so its results must match the
 * unwrapped network bit for bit.
 */

#include <cmath>
#include <cstdio>

#include "common/cache.hh"
#include "common/metrics.hh"
#include "common/random.hh"
#include "nn/dataset.hh"
#include "nn/module.hh"
#include "nn/trainer.hh"
#include "workload.hh"

namespace perfbench {

namespace {

namespace nn = inca::nn;
using inca::tensor::Tensor;

// train_on_chip's miniature Table VI.
constexpr int kClasses = 6;
constexpr std::int64_t kChannels = 1;
constexpr std::int64_t kImage = 12;
constexpr int kTrainPerClass = 25;
constexpr int kTestPerClass = 15;
constexpr std::int64_t kBase = 8; ///< makeSmallResNet base channels
constexpr int kEpochs = 12;
constexpr std::int64_t kBatch = 10;
constexpr int kRuns = 3;

const nn::NoiseSpec kNoise[kRuns] = {
    {nn::NoiseTarget::None, 0.0},
    {nn::NoiseTarget::Weights, 0.05},
    {nn::NoiseTarget::Activations, 0.05},
};

/** Images through forward+backward in one nn::train call. */
constexpr std::int64_t kImagesPerRun =
    kEpochs * (kClasses * kTrainPerClass / kBatch) * kBatch;

/**
 * Closed-form forward MACs of one training image, N*Ho*Wo*Co*Kh*Kw*Ci
 * summed over makeSmallResNet's convolutions (3x3, stride 1, "same").
 */
constexpr double kConvMacsPerImage =
    double(kImage * kImage * kBase * 9 * kChannels) +     // stem
    2.0 * double(kImage * kImage * kBase * 9 * kBase) +   // block
    double((kImage / 2) * (kImage / 2) * 2 * kBase * 9 * kBase);

struct PhaseTimes
{
    double fwd = 0.0, bwd = 0.0, step = 0.0;
};

enum class Kind
{
    Conv,
    Linear,
    Relu,
    MaxPool,
    Flatten,
    Residual,
};

/** What the wrappers of one network measured (training-mode unless
 *  stated). */
struct NetTimes
{
    PhaseTimes kinds[6];
    double residualInner = 0.0; ///< modules inside the residual block
    double topFwd = 0.0, topBwd = 0.0, topStep = 0.0; ///< depth 0
    double evalFwd = 0.0;  ///< eval-mode forwards, depth 0
    double convMacs = 0.0; ///< training-mode conv forward MACs

    PhaseTimes &of(Kind k) { return kinds[int(k)]; }
};

struct SpanNames
{
    const char *fwd, *bwd, *step, *evalFwd;
};

const SpanNames kSpanNames[6] = {
    {"nn.conv.fwd", "nn.conv.bwd", "nn.conv.step", "nn.conv.eval_fwd"},
    {"nn.linear.fwd", "nn.linear.bwd", "nn.linear.step",
     "nn.linear.eval_fwd"},
    {"nn.relu.fwd", "nn.relu.bwd", "nn.relu.step", "nn.relu.eval_fwd"},
    {"nn.maxpool.fwd", "nn.maxpool.bwd", "nn.maxpool.step",
     "nn.maxpool.eval_fwd"},
    {"nn.flatten.fwd", "nn.flatten.bwd", "nn.flatten.step",
     "nn.flatten.eval_fwd"},
    {"nn.residual.fwd", "nn.residual.bwd", "nn.residual.step",
     "nn.residual.eval_fwd"},
};

/** Timing wrapper: delegates every call to one public module. */
class Timed : public nn::Module
{
  public:
    Timed(std::unique_ptr<nn::Module> inner, Kind kind, bool top,
          NetTimes &times)
        : inner_(std::move(inner)), kind_(kind), top_(top), times_(times)
    {
    }

    Tensor
    forward(const Tensor &x, nn::ForwardCtx &ctx) override
    {
        const SpanNames &names = kSpanNames[int(kind_)];
        Tensor y;
        const double s = timed(ctx.training ? names.fwd : names.evalFwd,
                               [&] { y = inner_->forward(x, ctx); });
        if (!ctx.training) {
            if (top_)
                times_.evalFwd += s;
            return y;
        }
        times_.of(kind_).fwd += s;
        (top_ ? times_.topFwd : times_.residualInner) += s;
        if (kind_ == Kind::Conv) {
            const Tensor &w =
                static_cast<nn::Conv2d &>(*inner_).weights();
            times_.convMacs += double(y.dim(0)) * double(y.dim(2)) *
                               double(y.dim(3)) * double(y.dim(1)) *
                               double(w.dim(2)) * double(w.dim(3)) *
                               double(x.dim(1));
        }
        return y;
    }

    Tensor
    backward(const Tensor &dy) override
    {
        Tensor dx;
        const double s = timed(kSpanNames[int(kind_)].bwd,
                               [&] { dx = inner_->backward(dy); });
        times_.of(kind_).bwd += s;
        (top_ ? times_.topBwd : times_.residualInner) += s;
        return dx;
    }

    void
    step(float lr) override
    {
        const double s = timed(kSpanNames[int(kind_)].step,
                               [&] { inner_->step(lr); });
        times_.of(kind_).step += s;
        (top_ ? times_.topStep : times_.residualInner) += s;
    }

    std::int64_t
    parameterCount() const override
    {
        return inner_->parameterCount();
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<nn::Module> inner_;
    Kind kind_;
    bool top_;
    NetTimes &times_;
};

/**
 * makeSmallResNet(kChannels, kImage, kClasses, kBase, rng) with every
 * module wrapped; constructors run in the same order, so the weights
 * draw the same RNG values.
 */
std::unique_ptr<nn::Sequential>
makeWrappedSmallResNet(inca::Rng &rng, NetTimes &t)
{
    const auto wrap = [&](std::unique_ptr<nn::Module> m, Kind kind,
                          bool top) {
        return std::make_unique<Timed>(std::move(m), kind, top, t);
    };
    const std::int64_t c = kBase;
    auto net = std::make_unique<nn::Sequential>();
    net->append(wrap(std::make_unique<nn::Conv2d>(kChannels, c, 3, 1, 1,
                                                  rng),
                     Kind::Conv, true));
    net->append(wrap(std::make_unique<nn::ReLU>(), Kind::Relu, true));

    auto inner = std::make_unique<nn::Sequential>();
    inner->append(wrap(std::make_unique<nn::Conv2d>(c, c, 3, 1, 1, rng),
                       Kind::Conv, false));
    inner->append(wrap(std::make_unique<nn::ReLU>(), Kind::Relu, false));
    inner->append(wrap(std::make_unique<nn::Conv2d>(c, c, 3, 1, 1, rng),
                       Kind::Conv, false));
    net->append(wrap(std::make_unique<nn::Residual>(std::move(inner)),
                     Kind::Residual, true));

    net->append(wrap(std::make_unique<nn::MaxPool2d>(2), Kind::MaxPool,
                     true));
    net->append(wrap(std::make_unique<nn::Conv2d>(c, 2 * c, 3, 1, 1, rng),
                     Kind::Conv, true));
    net->append(wrap(std::make_unique<nn::ReLU>(), Kind::Relu, true));
    net->append(wrap(std::make_unique<nn::MaxPool2d>(2), Kind::MaxPool,
                     true));
    net->append(wrap(std::make_unique<nn::Flatten>(), Kind::Flatten, true));
    const std::int64_t flat = 2 * c * (kImage / 4) * (kImage / 4);
    net->append(wrap(std::make_unique<nn::Linear>(flat, kClasses, rng),
                     Kind::Linear, true));
    return net;
}

class TrainWorkload : public Workload
{
  public:
    explicit TrainWorkload(const RunOptions &opt)
    {
        inca::SplitMix64 seeds(opt.seed);
        dataSeed_ = seeds.next();
        netSeed_ = seeds.next();
        trainSeed_ = seeds.next();
    }

    void
    setup() override
    {
        nn::SyntheticSpec spec;
        spec.numClasses = kClasses;
        spec.channels = kChannels;
        spec.size = kImage;
        spec.trainPerClass = kTrainPerClass;
        spec.testPerClass = kTestPerClass;
        spec.seed = dataSeed_;
        spec.pixelNoise = 0.25;
        data_ = nn::makeSynthetic(spec);
    }

    void
    prepare() override
    {
        inca::clearAllCaches();
        for (int i = 0; i < kRuns; ++i) {
            inca::Rng rng(netSeed_);
            nets_[i] = nn::makeSmallResNet(kChannels, kImage, kClasses,
                                           kBase, rng);
        }
    }

    void run() override { train(nets_); }

    Checks
    check() override
    {
        Checks c;
        std::string canon;
        char buf[96];
        for (int i = 0; i < kRuns; ++i) {
            const nn::TrainResult &r = results_[i];
            c.expect(r.epochLoss.size() == std::size_t(kEpochs) &&
                         r.epochTestAccuracy.size() ==
                             std::size_t(kEpochs),
                     "one loss and accuracy per epoch");
            for (std::size_t e = 0; e < r.epochLoss.size(); ++e) {
                c.expect(std::isfinite(r.epochLoss[e]),
                         "finite epoch loss");
                c.expect(r.epochTestAccuracy[e] >= 0.0 &&
                             r.epochTestAccuracy[e] <= 1.0,
                         "accuracy is a fraction");
                std::snprintf(buf, sizeof(buf), "%d %zu %.17g %.17g\n", i,
                              e, r.epochLoss[e], r.epochTestAccuracy[e]);
                canon += buf;
            }
        }
        c.digest = digestHex(canon);
        return c;
    }

    double work() const override { return double(kRuns * kImagesPerRun); }
    const char *rateName() const override { return "train_img_per_s"; }
    const char *rateUnit() const override { return "img/s"; }

    bool
    extraCheck(Checks &out) override
    {
        NetTimes times[kRuns];
        Nets nets;
        buildWrapped(nets, times);
        train(nets);
        out = checkWrapped(times);
        return true;
    }

    TracedWall
    traced(MetricList &m, Checks &checks, double rssGrowthKb) override
    {
        (void)rssGrowthKb; // no per-layer memory metric
        NetTimes times[kRuns];
        Nets nets;
        buildWrapped(nets, times);
        inca::clearAllCaches();
        inca::metrics::resetAll();
        double trainS[kRuns] = {};
        TracedWall tw;
        tw.wallS = timed("perfbench.train", [&] { train(nets, trainS); });
        for (double s : trainS)
            tw.attributedS += s;
        readRegistry(m);

        static const char *const kKindNames[] = {
            "conv", "linear", "relu", "maxpool", "flatten"};
        for (int k = 0; k < 5; ++k) {
            const std::string base = std::string("nn.") + kKindNames[k];
            for (const NetTimes &t : times) {
                m.add(base + ".fwd_s", t.kinds[k].fwd);
                m.add(base + ".bwd_s", t.kinds[k].bwd);
                if (Kind(k) == Kind::Conv || Kind(k) == Kind::Linear)
                    m.add(base + ".step_s", t.kinds[k].step);
            }
        }
        double fwd[kRuns];
        for (int i = 0; i < kRuns; ++i) {
            const NetTimes &t = times[i];
            const PhaseTimes &res = t.kinds[int(Kind::Residual)];
            m.add("nn.residual.self_s",
                  res.fwd + res.bwd + res.step - t.residualInner);
            m.add("nn.eval_fwd_s", t.evalFwd);
            m.add("nn.trainer.self_s", trainS[i] - t.topFwd - t.topBwd -
                                           t.topStep - t.evalFwd);
            m.add("nn.conv.macs", t.convMacs);
            fwd[i] = t.topFwd + t.evalFwd;
        }
        m.set("nn.conv.gmac_per_s",
              m.get("nn.conv.macs") / m.get("nn.conv.fwd_s") / 1e9);
        m.set("nn.noise_fwd_extra_s", fwd[1] + fwd[2] - 2.0 * fwd[0]);
        checks = checkWrapped(times);
        return tw;
    }

  private:
    nn::TrainConfig
    config(int run) const
    {
        nn::TrainConfig cfg;
        cfg.epochs = kEpochs;
        cfg.batchSize = kBatch;
        cfg.lr = 0.02f;
        cfg.noise = kNoise[run];
        cfg.seed = trainSeed_;
        return cfg;
    }

    using Nets = std::unique_ptr<nn::Sequential>[kRuns];

    void
    buildWrapped(Nets &nets, NetTimes (&times)[kRuns]) const
    {
        for (int i = 0; i < kRuns; ++i) {
            inca::Rng rng(netSeed_);
            nets[i] = makeWrappedSmallResNet(rng, times[i]);
        }
    }

    /** nn::train each network under its noise setting; @p trainS gets
     *  each call's host seconds when given. */
    void
    train(Nets &nets, double *trainS = nullptr)
    {
        for (int i = 0; i < kRuns; ++i) {
            const double s = timed("nn.train", [&] {
                results_[i] = nn::train(*nets[i], data_, config(i));
            });
            if (trainS)
                trainS[i] = s;
        }
    }

    /** check() of the wrapped run plus the MAC closed form. */
    Checks
    checkWrapped(const NetTimes (&times)[kRuns])
    {
        Checks c = check();
        for (const NetTimes &t : times)
            c.expect(t.convMacs == kConvMacsPerImage * double(kImagesPerRun),
                     "conv MACs equal the closed form");
        return c;
    }

    std::uint64_t dataSeed_ = 0, netSeed_ = 0, trainSeed_ = 0;
    nn::DatasetPair data_;
    Nets nets_;
    nn::TrainResult results_[kRuns];
};

} // namespace

std::unique_ptr<Workload>
makeTrainTable6(const RunOptions &opt)
{
    return std::make_unique<TrainWorkload>(opt);
}

} // namespace perfbench
