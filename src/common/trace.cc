#include "common/trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

namespace inca {
namespace trace {

namespace {

/**
 * Captured during static initialization, which the runtime performs
 * on the main thread: lets the recorder label the main thread without
 * any cooperation from drivers.
 */
const std::thread::id gMainThread = std::this_thread::get_id();

/** Per-thread event buffer; owned by the registry, used by one thread. */
struct ThreadBuf
{
    std::mutex mutex; ///< appends vs. cross-thread flush
    std::uint32_t tid = 0;
    std::string threadName; ///< sticky; survives start()/clear()
    std::vector<Event> events;
};

struct State
{
    std::atomic<bool> enabled{false};
    std::mutex mutex; ///< guards bufs, path, nextTid
    std::vector<ThreadBuf *> bufs;
    std::string path;
    std::uint32_t nextTid = 0;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    std::mutex flushMutex; ///< guards flushCallbacks only
    std::vector<std::function<void()>> flushCallbacks;
};

/** Process that registered the exit-time flush. */
pid_t gFlushOwner = 0;

void
flushAtExit()
{
    // A forked child (a death test, say) inherits the registration
    // but not the threads that may hold a buffer lock at fork time:
    // flushing there could block on that lock, and would overwrite
    // the parent's trace file, so only the registering process does.
    if (getpid() == gFlushOwner && enabled())
        stop();
}

State &
state()
{
    // Leaked on purpose: events may be recorded during static
    // destruction of other modules; the buffers must outlive them.
    // First use also arms tracing from INCA_TRACE and registers the
    // exit-time flush so every binary honors the variable.
    static State *s = [] {
        auto *st = new State;
        if (const char *env = std::getenv("INCA_TRACE")) {
            if (*env != '\0') {
                st->path = env;
                st->enabled.store(true, std::memory_order_relaxed);
                gFlushOwner = getpid();
                std::atexit(flushAtExit);
            }
        }
        return st;
    }();
    return *s;
}

/**
 * Touch the recorder during static initialization so INCA_TRACE is
 * armed (and the exit-time flush registered) even in a process whose
 * instrumented paths never fire -- the user still gets a valid, if
 * empty, trace file.
 */
const bool gInitAtStartup = (state(), true);

std::int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - state().epoch)
        .count();
}

/** The calling thread's buffer, created and registered on first use. */
ThreadBuf &
localBuf()
{
    thread_local ThreadBuf *tls = nullptr;
    if (tls == nullptr) {
        auto *buf = new ThreadBuf;
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        buf->tid = s.nextTid++;
        if (std::this_thread::get_id() == gMainThread)
            buf->threadName = "main";
        s.bufs.push_back(buf);
        tls = buf;
    }
    return *tls;
}

void
emit(Event &&e)
{
    ThreadBuf &buf = localBuf();
    std::lock_guard<std::mutex> lock(buf.mutex);
    e.tid = buf.tid;
    buf.events.push_back(std::move(e));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

/** Serialize under the registry lock (buffers locked one at a time). */
std::string
toJsonLocked(State &s)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (ThreadBuf *buf : s.bufs) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        if (!buf->threadName.empty()) {
            sep();
            os << "{\"name\": \"thread_name\", \"ph\": \"M\", "
                  "\"pid\": 1, \"tid\": "
               << buf->tid << ", \"args\": {\"name\": \""
               << jsonEscape(buf->threadName) << "\"}}";
        }
        for (const Event &e : buf->events) {
            sep();
            os << "{\"name\": \"" << jsonEscape(e.name)
               << "\", \"ph\": \"" << e.ph
               << "\", \"pid\": 1, \"tid\": " << e.tid
               << ", \"ts\": " << e.tsUs;
            if (e.ph == 'X')
                os << ", \"dur\": " << e.durUs
                   << ", \"cat\": \"inca\"";
            else if (e.ph == 'C') {
                char v[48];
                std::snprintf(v, sizeof(v), "%.9g", e.value);
                os << ", \"args\": {\"value\": " << v << "}";
            } else if (e.ph == 'i') {
                os << ", \"s\": \"t\"";
            } else if (e.ph == 's' || e.ph == 'f') {
                // Flow pairs carry a category (viewers match flows by
                // it) and, for the end, enclosing-slice binding so
                // the arrow lands on the slice the timestamp is in.
                os << ", \"cat\": \"inca\", \"id\": " << e.id;
                if (e.ph == 'f')
                    os << ", \"bp\": \"e\"";
            }
            os << "}";
        }
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace

bool
enabled()
{
    return state().enabled.load(std::memory_order_relaxed);
}

void
start(const std::string &path)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.path = path;
    s.enabled.store(true, std::memory_order_relaxed);
}

std::string
stop()
{
    State &s = state();
    // Drain the flush callbacks before taking the registry lock and
    // before disabling: they may emit events (which locks buffers
    // and, for a first-use thread, the registry), and those events
    // must make the serialization below.
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard<std::mutex> lock(s.flushMutex);
        callbacks = s.flushCallbacks;
    }
    for (const auto &cb : callbacks)
        cb();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.enabled.store(false, std::memory_order_relaxed);
    const std::string json = toJsonLocked(s);
    if (!s.path.empty()) {
        std::ofstream out(s.path);
        if (out)
            out << json;
    }
    return json;
}

void
atFlush(std::function<void()> callback)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.flushMutex);
    s.flushCallbacks.push_back(std::move(callback));
}

void
clear()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (ThreadBuf *buf : s.bufs) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        buf->events.clear();
    }
}

std::string
toJson()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return toJsonLocked(s);
}

std::vector<Event>
snapshot()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<Event> out;
    for (ThreadBuf *buf : s.bufs) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
    return out;
}

std::size_t
eventCount()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::size_t n = 0;
    for (ThreadBuf *buf : s.bufs) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        n += buf->events.size();
    }
    return n;
}

void
counter(const std::string &name, double value)
{
    if (!enabled())
        return;
    Event e;
    e.name = name;
    e.ph = 'C';
    e.tsUs = nowUs();
    e.value = value;
    emit(std::move(e));
}

void
counterAt(const std::string &name, std::int64_t tsUs, double value)
{
    if (!enabled())
        return;
    Event e;
    e.name = name;
    e.ph = 'C';
    e.tsUs = tsUs;
    e.value = value;
    emit(std::move(e));
}

void
emitInstant(const std::string &name, std::int64_t tsUs)
{
    if (!enabled())
        return;
    Event e;
    e.name = name;
    e.ph = 'i';
    e.tsUs = tsUs;
    emit(std::move(e));
}

void
emitFlow(const std::string &name, std::uint64_t id,
         std::int64_t fromUs, std::int64_t toUs)
{
    if (!enabled())
        return;
    Event s;
    s.name = name;
    s.ph = 's';
    s.tsUs = fromUs;
    s.id = id;
    emit(std::move(s));
    Event f;
    f.name = name;
    f.ph = 'f';
    f.tsUs = toUs;
    f.id = id;
    emit(std::move(f));
}

void
nameThread(const std::string &name)
{
    ThreadBuf &buf = localBuf();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.threadName = name;
}

std::string
spanName(const char *prefix, const std::string &suffix)
{
    return enabled() ? prefix + suffix : std::string();
}

std::int64_t
nowMicros()
{
    return nowUs();
}

void
emitComplete(const std::string &name, std::int64_t startUs,
             std::int64_t durUs)
{
    if (!enabled())
        return;
    Event e;
    e.name = name;
    e.ph = 'X';
    e.tsUs = startUs;
    e.durUs = durUs;
    emit(std::move(e));
}

Span::Span(const char *name)
{
    if (!enabled())
        return;
    name_ = name;
    startUs_ = nowUs();
}

Span::Span(std::string name)
{
    if (!enabled())
        return;
    name_ = std::move(name);
    startUs_ = nowUs();
}

Span::~Span()
{
    if (startUs_ < 0 || !enabled())
        return;
    Event e;
    e.name = std::move(name_);
    e.ph = 'X';
    e.tsUs = startUs_;
    e.durUs = nowUs() - startUs_;
    emit(std::move(e));
}

} // namespace trace
} // namespace inca
