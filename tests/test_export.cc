/**
 * @file
 * CSV / JSON export tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/env.hh"
#include "inca/engine.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"

namespace inca {
namespace sim {
namespace {

arch::RunCost
sampleRun()
{
    core::IncaEngine engine(arch::paperInca());
    return engine.inference(nn::lenet5(), 8);
}

TEST(ExportCsv, HeaderAndRowCount)
{
    const auto run = sampleRun();
    const std::string csv = toCsv(run);
    // One header + one line per layer.
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, run.layers.size() + 1);
    EXPECT_EQ(csv.rfind("layer,kind,latency_s,energy_J", 0), 0u);
}

TEST(ExportCsv, ConsistentColumnCounts)
{
    const std::string csv = toCsv(sampleRun());
    std::istringstream in(csv);
    std::string line;
    size_t columns = 0;
    while (std::getline(in, line)) {
        size_t commas = 0;
        for (char c : line)
            commas += c == ',';
        if (columns == 0)
            columns = commas;
        else
            EXPECT_EQ(commas, columns) << line;
    }
    EXPECT_GE(columns, 4u);
}

TEST(ExportCsv, MentionsEveryLayer)
{
    const auto run = sampleRun();
    const std::string csv = toCsv(run);
    for (const auto &layer : run.layers)
        EXPECT_NE(csv.find(layer.name + ","), std::string::npos)
            << layer.name;
}

TEST(ExportCsv, QuotesHostileFieldsPerRfc4180)
{
    // A layer name with a comma, a quote, and a newline must not
    // shift columns or break rows: the field is quoted, embedded
    // quotes doubled.
    arch::RunCost run;
    arch::LayerCost layer;
    layer.name = "conv,3x3 \"same\"\npad";
    layer.stats.add("energy.dram", 1.0);
    run.layers.push_back(layer);
    const std::string csv = toCsv(run);
    EXPECT_NE(csv.find("\"conv,3x3 \"\"same\"\"\npad\""),
              std::string::npos)
        << csv;
    // Plain names stay unquoted (byte-compatible with old output).
    arch::RunCost plain;
    layer.name = "conv1";
    plain.layers.push_back(layer);
    EXPECT_EQ(toCsv(plain).find('"'), std::string::npos);
}

TEST(ExportCsv, QuotesHostileStatKeys)
{
    arch::RunCost run;
    arch::LayerCost layer;
    layer.name = "conv1";
    layer.stats.add("energy.dram,extra", 1.0);
    run.layers.push_back(layer);
    const std::string csv = toCsv(run);
    EXPECT_NE(csv.find("\"energy.dram,extra\""), std::string::npos)
        << csv;
}

TEST(ExportJson, ContainsTotalsAndLayers)
{
    const auto run = sampleRun();
    const std::string json = toJson(run);
    EXPECT_NE(json.find("\"network\": \"lenet5\""),
              std::string::npos);
    EXPECT_NE(json.find("\"phase\": \"inference\""),
              std::string::npos);
    EXPECT_NE(json.find("\"batch_size\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"layers\": ["), std::string::npos);
    for (const auto &layer : run.layers)
        EXPECT_NE(json.find("\"" + layer.name + "\""),
                  std::string::npos);
}

TEST(ExportJson, BalancedBracesAndBrackets)
{
    const std::string json = toJson(sampleRun());
    int braces = 0, brackets = 0;
    bool inString = false;
    char prev = '\0';
    for (char c : json) {
        if (c == '"' && prev != '\\')
            inString = !inString;
        if (!inString) {
            braces += c == '{';
            braces -= c == '}';
            brackets += c == '[';
            brackets -= c == ']';
        }
        prev = c;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(inString);
}

TEST(ExportJson, ValidPerStrictParser)
{
    EXPECT_TRUE(testutil::jsonValid(toJson(sampleRun())));
}

TEST(ExportJson, ProvenanceManifest)
{
    const auto run = sampleRun();
    const std::string json = toJson(run);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);
    EXPECT_NE(json.find("\"config_key_hash\": \"0x"),
              std::string::npos);
    // The engine stamps the design point's key hash; a real run is
    // never the empty-key hash 0x0.
    EXPECT_NE(run.configKeyHash, 0u);
    EXPECT_NE(json.find("\"threads\": "), std::string::npos);
    EXPECT_EQ(json.find("\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"build_type\": "), std::string::npos);
    for (const std::string &var : knownEnvVars())
        EXPECT_NE(json.find("\"" + var + "\": "), std::string::npos)
            << var;
}

TEST(ExportJson, TrainingPhaseLabel)
{
    core::IncaEngine engine(arch::paperInca());
    const auto run = engine.training(nn::lenet5(), 4);
    EXPECT_NE(toJson(run).find("\"phase\": \"training\""),
              std::string::npos);
}

TEST(ExportFile, RoundTrip)
{
    const std::string path = "/tmp/inca_export_test.csv";
    writeFile(path, "hello,world\n");
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "hello,world");
    std::remove(path.c_str());
}

TEST(ExportFileDeath, UnwritablePathFatal)
{
    EXPECT_DEATH(writeFile("/nonexistent-dir/x.csv", "x"),
                 "cannot write");
}

} // namespace
} // namespace sim
} // namespace inca
