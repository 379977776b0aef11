/**
 * @file
 * Shared export plumbing: the RFC-4180 CSV field quoter, the JSON
 * string escaper, and the standard run-provenance manifest. These
 * started life inside sim/export.cc; they live in common so every
 * emitter (per-layer run export, DSE frontier, bottleneck reports)
 * writes the same bytes for the same content instead of each carrying
 * a private copy that drifts.
 */

#ifndef INCA_COMMON_EXPORT_UTIL_HH
#define INCA_COMMON_EXPORT_UTIL_HH

#include <string>

namespace inca {

/**
 * Quote a CSV field per RFC 4180: fields containing a comma, a
 * double quote, or a line break are wrapped in double quotes, with
 * embedded quotes doubled. Layer names and stat keys come from
 * user-definable network descriptions, so emitting them raw would
 * corrupt the table (a comma in a layer name shifts every column
 * after it).
 */
std::string csvField(const std::string &s);

/** Escape a string for a JSON literal (names are simple but safe). */
std::string jsonEscape(const std::string &s);

/** Value of an environment variable as a JSON literal; null if unset. */
std::string envJson(const char *name);

/**
 * The standard run-provenance manifest body: enough to reproduce the
 * run -- one optional caller-supplied identity member (a config key
 * hash or a run signature; pre-rendered, e.g.
 * "\"config_key_hash\": \"0x12\""; empty for none), the thread
 * count, the build, and every knownEnvVars() variable as the process
 * saw it. Returns the members between the braces, each line prefixed
 * with @p indent and terminated with a newline (no trailing comma),
 * so the caller writes:
 *
 *   os << "  \"provenance\": {\n"
 *      << provenanceJson(lead, "    ") << "  }";
 */
std::string provenanceJson(const std::string &leadMember,
                           const std::string &indent);

} // namespace inca

#endif // INCA_COMMON_EXPORT_UTIL_HH
