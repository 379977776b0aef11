/**
 * @file
 * Environment-variable hygiene.
 *
 * The simulator reads a small, fixed set of INCA_* switches (tracing,
 * metrics, threading, kernel ISA). A typo like INCA_TRACES silently does
 * nothing, which is the worst failure mode for a reproducibility
 * manifest -- the run looks configured but is not. checkEnvironment()
 * scans the process environment once and warn()s about every
 * INCA_*-prefixed variable the simulator does not recognize, naming
 * the valid switches. Drivers (examples, benches) call it at startup.
 */

#ifndef INCA_COMMON_ENV_HH
#define INCA_COMMON_ENV_HH

#include <string>
#include <vector>

namespace inca {

/** The INCA_* variables the simulator actually reads, sorted. */
const std::vector<std::string> &knownEnvVars();

/**
 * INCA_*-prefixed names in @p envp ("NAME=value" strings, nullptr
 * terminated) that the simulator does not read, sorted. Exposed for
 * tests; checkEnvironment() runs it on the process environment.
 */
std::vector<std::string>
unrecognizedEnvVars(const char *const *envp);

/**
 * Warn (once per process) about unrecognized INCA_* variables in the
 * process environment, listing the valid switches in the message.
 */
void checkEnvironment();

} // namespace inca

#endif // INCA_COMMON_ENV_HH
