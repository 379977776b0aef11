#include "common/export_util.hh"

#include <cstdlib>
#include <sstream>

#include "common/env.hh"
#include "common/thread_pool.hh"

namespace inca {

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
envJson(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return "null";
    return "\"" + jsonEscape(v) + "\"";
}

std::string
provenanceJson(const std::string &leadMember,
               const std::string &indent)
{
    std::ostringstream os;
    if (!leadMember.empty())
        os << indent << leadMember << ",\n";
    os << indent << "\"threads\": "
       << ThreadPool::globalThreadCount() << ",\n";
#ifdef INCA_BUILD_TYPE
    os << indent << "\"build_type\": \"" << jsonEscape(INCA_BUILD_TYPE)
       << "\",\n";
#else
    os << indent << "\"build_type\": \"unknown\",\n";
#endif
    os << indent << "\"env\": {";
    const char *sep = "";
    for (const std::string &name : knownEnvVars()) {
        os << sep << "\"" << name << "\": " << envJson(name.c_str());
        sep = ", ";
    }
    os << "}\n";
    return os.str();
}

} // namespace inca
