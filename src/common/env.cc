#include "common/env.hh"

#include <algorithm>
#include <mutex>

#include "common/logging.hh"

// The portable spelling of the process environment (POSIX environ;
// also provided by MinGW/MSVC CRTs).
extern "C" char **environ;

namespace inca {

const std::vector<std::string> &
knownEnvVars()
{
    static const std::vector<std::string> known = {
        "INCA_KERNEL_ISA",
        "INCA_METRICS",
        "INCA_NUM_THREADS",
        "INCA_TRACE",
    };
    return known;
}

std::vector<std::string>
unrecognizedEnvVars(const char *const *envp)
{
    std::vector<std::string> out;
    if (!envp)
        return out;
    const std::string prefix = "INCA_";
    for (const char *const *p = envp; *p; ++p) {
        const std::string entry = *p;
        const std::size_t eq = entry.find('=');
        const std::string name =
            eq == std::string::npos ? entry : entry.substr(0, eq);
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        const auto &known = knownEnvVars();
        if (std::find(known.begin(), known.end(), name) ==
            known.end())
            out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
checkEnvironment()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const auto unknown = unrecognizedEnvVars(environ);
        if (unknown.empty())
            return;
        std::string names, valid;
        for (const auto &n : unknown) {
            if (!names.empty())
                names += ", ";
            names += n;
        }
        for (const auto &n : knownEnvVars()) {
            if (!valid.empty())
                valid += ", ";
            valid += n;
        }
        warn("unrecognized environment variable%s %s -- the "
             "simulator reads only %s; a typo here silently "
             "configures nothing",
             unknown.size() > 1 ? "s" : "", names.c_str(),
             valid.c_str());
    });
}

} // namespace inca
