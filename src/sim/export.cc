#include "sim/export.hh"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/export_util.hh"
#include "common/logging.hh"

namespace inca {
namespace sim {

namespace {

std::string
num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::set<std::string>
allStatKeys(const arch::RunCost &run)
{
    std::set<std::string> keys;
    for (const auto &layer : run.layers)
        for (const auto &[key, value] : layer.stats.entries())
            keys.insert(key);
    return keys;
}

} // namespace

std::string
toCsv(const arch::RunCost &run)
{
    const auto keys = allStatKeys(run);
    std::ostringstream os;
    os << "layer,kind,latency_s,energy_J";
    for (const auto &key : keys)
        os << "," << csvField(key);
    os << "\n";
    for (const auto &layer : run.layers) {
        os << csvField(layer.name) << ","
           << nn::layerKindName(layer.kind) << ","
           << num(layer.latency) << "," << num(layer.energy());
        for (const auto &key : keys)
            os << "," << num(layer.stats.get(key));
        os << "\n";
    }
    return os.str();
}

std::string
toJson(const arch::RunCost &run, const std::string &extras)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"network\": \"" << jsonEscape(run.network) << "\",\n";
    os << "  \"phase\": \""
       << (run.phase == arch::Phase::Training ? "training"
                                              : "inference")
       << "\",\n";
    os << "  \"batch_size\": " << run.batchSize << ",\n";
    if (!extras.empty())
        os << "  " << extras << ",\n";
    os << "  \"latency_s\": " << num(run.latency) << ",\n";
    os << "  \"static_energy_J\": " << num(run.staticEnergy) << ",\n";
    os << "  \"total_energy_J\": " << num(run.energy()) << ",\n";
    // Run-provenance manifest: enough to reproduce the run -- the
    // design point (config key hash from arch::appendKey), the
    // thread count, the build, and the INCA_* environment the
    // process saw.
    {
        std::ostringstream lead;
        lead << "\"config_key_hash\": \"0x" << std::hex
             << run.configKeyHash << std::dec << "\"";
        os << "  \"provenance\": {\n"
           << provenanceJson(lead.str(), "    ") << "  },\n";
    }
    os << "  \"layers\": [\n";
    for (size_t i = 0; i < run.layers.size(); ++i) {
        const auto &layer = run.layers[i];
        os << "    {\"name\": \"" << jsonEscape(layer.name)
           << "\", \"kind\": \"" << nn::layerKindName(layer.kind)
           << "\", \"latency_s\": " << num(layer.latency)
           << ", \"energy_J\": " << num(layer.energy())
           << ", \"stats\": {";
        bool first = true;
        for (const auto &[key, value] : layer.stats.entries()) {
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << jsonEscape(key) << "\": " << num(value);
        }
        os << "}}" << (i + 1 < run.layers.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
}

} // namespace sim
} // namespace inca
