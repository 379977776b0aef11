/**
 * @file
 * Per-batch latency/energy cost model backing the serving simulator.
 *
 * A "server" is a group of one or more chips running one model
 * replica. The cost of dispatching a batch of a given size onto a
 * server comes from lowering the network to the shared IR and
 * executing it on the event backend -- the same machinery the
 * timeline driver uses -- and is memoized in a process-wide EvalCache
 * keyed by (engine config, network, batch, shard, link), so a
 * simulation touching thousands of batches pays for one event
 * execution per distinct batch size.
 *
 * Sharding maps a group of chips onto one replica:
 *  - replica: one chip per server; batch latency is the event-backend
 *    makespan, and the server admits the next batch when it finishes.
 *  - pipeline (layer-pipeline): layers are partitioned into
 *    contiguous, latency-balanced stages, one chip each. A batch
 *    traverses every stage plus an inter-stage activation transfer
 *    over the chip-to-chip link; the server re-admits a batch every
 *    initiation interval (the slowest stage), so throughput scales
 *    while single-batch latency does not.
 *  - tensor: every layer is split across the chips. Modeled by
 *    re-executing the event schedule with the on-chip compute units
 *    (array, ADC, digital, buffer) scaled by 1/chips -- DRAM stays
 *    unscaled (weights and inputs are broadcast) -- plus a per-layer
 *    all-reduce of the output activations over the link.
 *
 * Energy: a BatchCost carries the dynamic energy of the work plus the
 * link energy of the shard's transfers. Static (idle) energy is
 * deliberately NOT charged per batch: chips leak for the whole
 * simulated wall time whether busy or not, so the simulator charges
 * idlePowerPerServer() x servers x makespan once at report time.
 */

#ifndef INCA_SERVING_COST_MODEL_HH
#define INCA_SERVING_COST_MODEL_HH

#include <cstdint>
#include <string>

#include "arch/config.hh"
#include "common/units.hh"
#include "nn/network.hh"

namespace inca {
class CacheKey;
namespace serving {

/** How a server group's chips share one model replica. */
enum class ShardKind
{
    Replica,  ///< one chip per server
    Pipeline, ///< contiguous layer stages, one chip each
    Tensor,   ///< every layer split across the chips
};

/** "replica" / "pipeline" / "tensor". */
const char *shardKindName(ShardKind kind);

/** Parse a shard-kind name ("layer-pipeline" aliases "pipeline"). */
ShardKind shardKindByName(const std::string &name);

/** Chip-to-chip interconnect between the chips of one server. */
struct LinkSpec
{
    double bandwidthBytesPerS = 64e9; ///< per-direction bandwidth
    Seconds latencyS = 1e-6;          ///< per-hop message latency
    double energyPerByteJ = 10e-12;   ///< transfer energy
};

/** One server's chip organization. */
struct ShardSpec
{
    ShardKind kind = ShardKind::Replica;
    int chips = 1; ///< chips per server (forced 1 for replica)
    LinkSpec link;
};

/** Append shard + link identity to @p key (cache canonicalization). */
void appendKey(CacheKey &key, const ShardSpec &spec);

/** Cost of running one batch on one server group. */
struct BatchCost
{
    /** Dispatch-to-completion time of the batch on an empty server. */
    Seconds latencyS = 0.0;
    /**
     * Initiation interval: time until the server can admit the next
     * batch. Equals latencyS except for pipeline sharding, where the
     * slowest stage gates admission.
     */
    Seconds intervalS = 0.0;
    /** Dynamic compute energy + link transfer energy. */
    Joules energyJ = 0.0;
};

/**
 * Memoized (model, batch, shard) -> BatchCost oracle; see the file
 * comment. Pure: two instances with equal configs produce
 * bit-identical costs on any thread, cold or warm cache.
 */
class BatchCostModel
{
  public:
    BatchCostModel(const arch::IncaConfig &cfg, ShardSpec shard);
    BatchCostModel(const arch::BaselineConfig &cfg, ShardSpec shard);

    /** Cost of a @p batch -image batch of @p net (memoized). */
    BatchCost cost(const nn::NetworkDesc &net, int batch) const;

    /** Leakage of every chip in one server group. */
    Watts idlePowerPerServer() const { return chipIdleW_ * shard_.chips; }

    const ShardSpec &shard() const { return shard_; }

    /** "inca" or "ws". */
    const char *engineName() const { return inca_ ? "inca" : "ws"; }

    /** FNV-1a hash of the chip config's canonical key (provenance). */
    std::uint64_t configKeyHash() const { return configKeyHash_; }

  private:
    BatchCost compute(const nn::NetworkDesc &net, int batch) const;

    bool inca_ = true;
    arch::IncaConfig incaCfg_;
    arch::BaselineConfig wsCfg_;
    ShardSpec shard_;
    Watts chipIdleW_ = 0.0;
    std::uint64_t configKeyHash_ = 0;
};

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_COST_MODEL_HH
