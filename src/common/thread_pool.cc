#include "common/thread_pool.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>

#include <pthread.h>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace inca {

namespace {

/** True while the current thread is executing a pool task. */
thread_local bool tlsInsidePool = false;

int
threadsFromEnv()
{
    if (const char *env = std::getenv("INCA_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n >= 1)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : int(hw);
}

/** Storage of the global pool, shared by global() and resizing. */
std::mutex gPoolMutex;
std::unique_ptr<ThreadPool> gPool;

/*
 * Fork handlers. A forked child has only the forking thread: the
 * inherited pool's workers are gone, and a pool lock one of them held
 * at fork time stays locked. Destroying that pool (std::exit, e.g.
 * from fatal(), runs gPool's destructor) would block on the lock or
 * join threads that do not exist, so the child abandons it unread and
 * its next parallel_for builds a fresh pool. gPoolMutex is held
 * across fork() so the child never inherits it locked.
 */
void
lockPoolForFork()
{
    gPoolMutex.lock();
}

void
unlockPoolInParent()
{
    gPoolMutex.unlock();
}

void
abandonPoolInChild()
{
    (void)gPool.release(); // leaked: its workers do not exist here
    gPoolMutex.unlock();
}

const bool gForkHandlers =
    (pthread_atfork(lockPoolForFork, unlockPoolInParent,
                    abandonPoolInChild),
     true);

/** Seconds a claimed job waited between submission and first pickup. */
metrics::Histogram &
taskWaitHistogram()
{
    static metrics::Histogram *h =
        &metrics::histogram("pool.task_wait_us");
    return *h;
}

/** Index-range chunks executed by the pool (caller lane included). */
metrics::Counter &
taskCounter()
{
    static metrics::Counter *c = &metrics::counter("pool.tasks");
    return *c;
}

} // namespace

/** One parallelFor invocation: a chunk cursor plus retirement state. */
struct ThreadPool::Job
{
    const RangeFn *body = nullptr;
    std::int64_t n = 0;
    std::int64_t chunk = 1;
    std::atomic<std::int64_t> cursor{0};  ///< next unclaimed index
    std::atomic<std::int64_t> retired{0}; ///< indices fully processed
    int entered = 0;                      ///< workers holding the job
    std::chrono::steady_clock::time_point submitted; ///< wait metric
    std::exception_ptr error;
    std::mutex errorMutex;
};

ThreadPool::ThreadPool(int threads)
{
    if (threads < 1)
        threads = 1;
    workers_.reserve(size_t(threads - 1));
    for (int i = 0; i < threads - 1; ++i)
        workers_.emplace_back([this, i] { workerLoop(i + 1); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop(int index)
{
    const std::string name = "pool-worker-" + std::to_string(index);
    trace::nameThread(name);
#ifdef __linux__
    pthread_setname_np(pthread_self(),
                       name.substr(0, 15).c_str());
#endif
    std::uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            job = job_;
            if (job != nullptr)
                ++job->entered;
        }
        if (job == nullptr)
            continue;
        taskWaitHistogram().observe(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - job->submitted)
                .count());
        tlsInsidePool = true;
        runJob(*job);
        tlsInsidePool = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --job->entered;
        }
        done_.notify_all();
    }
}

void
ThreadPool::runJob(Job &job)
{
    for (;;) {
        const std::int64_t lo =
            job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
        if (lo >= job.n)
            return;
        const std::int64_t hi = std::min(lo + job.chunk, job.n);
        taskCounter().inc();
        trace::Span span("pool.task");
        try {
            (*job.body)(lo, hi);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errorMutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        job.retired.fetch_add(hi - lo, std::memory_order_acq_rel);
    }
}

void
ThreadPool::parallelFor(std::int64_t n, std::int64_t grain,
                        const RangeFn &body)
{
    if (n <= 0)
        return;
    if (grain < 1)
        grain = 1;
    // Serial paths: one lane, a loop too small to split, or a nested
    // call from inside a worker (which must not wait on the pool).
    if (workers_.empty() || n <= grain || tlsInsidePool) {
        body(0, n);
        return;
    }

    // One job at a time; concurrent submitters queue here.
    std::lock_guard<std::mutex> submitLock(submitMutex_);

    Job job;
    job.body = &body;
    job.n = n;
    job.submitted = std::chrono::steady_clock::now();
    // Aim for a few chunks per lane so uneven ranges load-balance,
    // but never split below the caller's grain.
    const std::int64_t lanes = threadCount();
    const std::int64_t target = (n + 4 * lanes - 1) / (4 * lanes);
    job.chunk = std::max(grain, target);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        ++generation_;
    }
    wake_.notify_all();

    // The caller is a lane too. Flag it inside-pool while it runs its
    // share so a nested parallel_for from its own task goes inline
    // instead of re-locking submitMutex_ (self-deadlock).
    tlsInsidePool = true;
    runJob(job);
    tlsInsidePool = false;

    // Retire the job: all indices processed and no worker still
    // holding a reference (a late waker must not touch a dead Job).
    {
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = nullptr;
        done_.wait(lock, [&] {
            return job.retired.load(std::memory_order_acquire) >= n &&
                   job.entered == 0;
        });
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (!gPool)
        gPool = std::make_unique<ThreadPool>(threadsFromEnv());
    return *gPool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    inca_assert(!tlsInsidePool,
                "setGlobalThreads from inside a pool task");
    if (threads < 1)
        threads = 1;
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (gPool && gPool->threadCount() == threads)
        return;
    gPool.reset(); // joins the old workers
    gPool = std::make_unique<ThreadPool>(threads);
}

void
parallel_for(std::int64_t n, std::int64_t grain,
             const ThreadPool::RangeFn &body)
{
    ThreadPool::global().parallelFor(n, grain, body);
}

void
parallel_for_each(std::int64_t n, std::int64_t grain,
                  const std::function<void(std::int64_t)> &body)
{
    parallel_for(n, grain, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
            body(i);
    });
}

} // namespace inca
