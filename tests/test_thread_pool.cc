/**
 * @file
 * ThreadPool semantics tests: exactly-once index coverage, nested
 * submission (no deadlock -- inner loops run inline on the worker),
 * exception propagation to the submitting thread, pool reusability
 * after a throw, fork safety (a child forked while workers are busy
 * can run a fresh pool and exit through fatal()), and an end-to-end
 * check that a full Trainer run is bit-identical at 1 and 4 lanes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "nn/dataset.hh"
#include "nn/module.hh"
#include "nn/trainer.hh"

namespace inca {
namespace {

class ThreadPoolTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        const std::int64_t n = 10007; // prime: uneven chunking
        std::vector<std::atomic<int>> hits(n);
        parallel_for(n, 7, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i)
                hits[size_t(i)].fetch_add(1,
                                          std::memory_order_relaxed);
        });
        for (std::int64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[size_t(i)].load(), 1) << "index " << i;
    }
}

TEST_F(ThreadPoolTest, PerIndexVariantCoversEveryIndexOnce)
{
    ThreadPool::setGlobalThreads(8);
    const std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for_each(n, 16, [&](std::int64_t i) {
        hits[size_t(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[size_t(i)].load(), 1) << "index " << i;
}

TEST_F(ThreadPoolTest, EmptyAndTinyRangesAreSafe)
{
    ThreadPool::setGlobalThreads(4);
    int calls = 0;
    parallel_for(0, 16, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::int64_t seen = -1;
    parallel_for(1, 16, [&](std::int64_t lo, std::int64_t hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 1);
        seen = lo;
    });
    EXPECT_EQ(seen, 0);
}

TEST_F(ThreadPoolTest, NestedSubmissionDoesNotDeadlock)
{
    ThreadPool::setGlobalThreads(4);
    const std::int64_t outer = 64, inner = 500;
    std::vector<std::int64_t> sums(outer, 0);
    parallel_for(outer, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t o = lo; o < hi; ++o) {
            // Inner loop runs inline on this worker: the fixed-size
            // pool can never starve itself.
            std::int64_t acc = 0;
            parallel_for(inner, 50,
                         [&](std::int64_t ilo, std::int64_t ihi) {
                             for (std::int64_t i = ilo; i < ihi; ++i)
                                 acc += i;
                         });
            sums[size_t(o)] = acc;
        }
    });
    const std::int64_t expect = inner * (inner - 1) / 2;
    for (std::int64_t o = 0; o < outer; ++o)
        ASSERT_EQ(sums[size_t(o)], expect) << "outer " << o;
}

TEST_F(ThreadPoolTest, ExceptionPropagatesToSubmitter)
{
    for (int threads : {1, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        EXPECT_THROW(
            parallel_for(1000, 4,
                         [&](std::int64_t lo, std::int64_t hi) {
                             for (std::int64_t i = lo; i < hi; ++i)
                                 if (i == 537)
                                     throw std::runtime_error("boom");
                         }),
            std::runtime_error);

        // The pool must stay usable after a throw.
        std::atomic<std::int64_t> count{0};
        parallel_for(1000, 4, [&](std::int64_t lo, std::int64_t hi) {
            count.fetch_add(hi - lo, std::memory_order_relaxed);
        });
        EXPECT_EQ(count.load(), 1000);
    }
}

TEST_F(ThreadPoolTest, ThreadCountClampsAndReports)
{
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 1);
    ThreadPool::setGlobalThreads(0); // clamped up
    EXPECT_EQ(ThreadPool::globalThreadCount(), 1);
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 3);
}

/**
 * A child forked while the pool's workers are busy inherits none of
 * them, but may inherit a pool lock one of them held. It must still
 * run a parallel_for (on a fresh pool) and exit through fatal(),
 * whose std::exit used to destroy the inherited pool and block on
 * that lock.
 */
TEST_F(ThreadPoolTest, ForkedChildRunsAndDiesWhileWorkersBusy)
{
    ThreadPool::setGlobalThreads(4);
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> sink{0};
    std::thread busy([&] {
        while (!stop.load())
            parallel_for_each(256, 1, [&](std::int64_t i) {
                sink.fetch_add(i, std::memory_order_relaxed);
            });
    });

    for (int round = 0; round < 100; ++round) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            const int devnull = open("/dev/null", O_WRONLY);
            dup2(devnull, STDERR_FILENO);
            std::atomic<std::int64_t> sum{0};
            parallel_for_each(1000, 1, [&](std::int64_t i) {
                sum.fetch_add(i);
            });
            if (sum.load() != 999 * 1000 / 2)
                _exit(2);
            fatal("forked child %d", round);
        }
        int status = 0;
        pid_t done = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (done == 0) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
        }
        ASSERT_EQ(done, pid) << "child " << round << " hung";
        ASSERT_TRUE(WIFEXITED(status)) << "child " << round;
        EXPECT_EQ(WEXITSTATUS(status), 1) << "child " << round;
    }
    stop = true;
    busy.join();
}

nn::DatasetPair
tinyTask()
{
    nn::SyntheticSpec spec;
    spec.numClasses = 3;
    spec.size = 8;
    spec.trainPerClass = 8;
    spec.testPerClass = 4;
    return nn::makeSynthetic(spec);
}

std::unique_ptr<nn::Sequential>
tinyNet(std::uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng)
        .emplace<nn::ReLU>()
        .emplace<nn::MaxPool2d>(2)
        .emplace<nn::Flatten>()
        .emplace<nn::Linear>(4 * 4 * 4, 3, rng);
    return net;
}

/**
 * End-to-end determinism: an identical Trainer run (same seeds, same
 * data) must produce bit-identical losses and accuracies whether the
 * tensor ops run on 1 lane or 4 -- the software analogue of the
 * paper's claim that the dataflow does not change the math.
 */
TEST_F(ThreadPoolTest, TrainerIsBitIdenticalAcrossThreadCounts)
{
    const auto data = tinyTask();
    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 4;
    cfg.lr = 0.05f;

    ThreadPool::setGlobalThreads(1);
    auto netSerial = tinyNet(99);
    const auto serial = nn::train(*netSerial, data, cfg);

    ThreadPool::setGlobalThreads(4);
    auto netParallel = tinyNet(99);
    const auto parallel = nn::train(*netParallel, data, cfg);

    ASSERT_EQ(serial.epochLoss.size(), parallel.epochLoss.size());
    for (size_t e = 0; e < serial.epochLoss.size(); ++e) {
        EXPECT_EQ(serial.epochLoss[e], parallel.epochLoss[e])
            << "epoch " << e;
        EXPECT_EQ(serial.epochTestAccuracy[e],
                  parallel.epochTestAccuracy[e])
            << "epoch " << e;
    }
    EXPECT_EQ(serial.finalTestAccuracy, parallel.finalTestAccuracy);
}

} // namespace
} // namespace inca
