/**
 * @file
 * Block-based trace cache frontend (paper section 2.4, [Blac99]):
 * traces of block *pointers* name decoded basic blocks stored once
 * in a block cache. Redundancy moves from uops to pointers;
 * fragmentation grows because storage is allocated in fixed block
 * frames.
 */

#ifndef XBS_BBTC_BBTC_FRONTEND_HH
#define XBS_BBTC_BBTC_FRONTEND_HH

#include <unordered_map>

#include "bbtc/block_cache.hh"
#include "frontend/frontend.hh"

namespace xbs
{

struct BbtcParams
{
    BlockCacheParams blocks;

    /** Block pointers per trace-table entry. */
    unsigned ptrsPerTrace = 4;

    /** Trace-table geometry (entries = sets * ways). */
    unsigned traceTableEntries = 4096;
    unsigned traceTableWays = 4;
};

class BbtcFrontend final : public Frontend
{
  public:
    BbtcFrontend(const FrontendParams &params,
                 const BbtcParams &bbtc_params);

    const BlockCache &blockCache() const { return blocks_; }

    /** Mean pointer instances per distinct resident block pointer
     *  (the BBTC's redundancy lives here, not in uops). */
    double pointerRedundancy() const;

    ScalarStat traceLookups{&root_, "traceLookups",
        "trace-table lookups"};
    ScalarStat traceHits{&root_, "traceHits", "trace-table hits"};
    ScalarStat blockMisses{&root_, "blockMissesOnHit",
        "pointed-to blocks absent from the block cache"};
    ScalarStat partialHits{&root_, "partialHits",
        "trace supplies cut short by path divergence"};

  private:
    /// @{ Checkpoint hooks: the "bbtc" section's structures.
    const char *ckptSection() const override { return "bbtc"; }
    void saveStructure(CkptSink &sink) const override;
    void loadStructure(CkptSource &src) override;
    /// @}

    /// @{ Cycle-loop hooks.
    void startRun(const Trace &trace, bool cold) override;
    Delivery deliveryCycle(const Trace &trace) override;
    bool fillRecord(const Trace &trace, std::size_t i,
                    bool last) override;
    bool exitBuild(const Trace &trace, std::size_t rec,
                   bool completed) override;
    /// @}

    struct TraceEntry
    {
        bool valid = false;
        uint64_t startIp = 0;
        uint64_t lru = 0;
        std::vector<uint64_t> blockIps;
    };

    TraceEntry *ttFind(uint64_t ip);
    void ttInsert(uint64_t start_ip,
                  const std::vector<uint64_t> &block_ips);

    /** Supply one trace entry along the actual path. */
    unsigned supplyTrace(const Trace &trace, const TraceEntry &entry,
                         std::size_t &rec, unsigned &stall);

    BbtcParams bbtcParams_;
    BlockCache blocks_;

    unsigned ttSets_;
    std::vector<TraceEntry> tt_;
    uint64_t ttClock_ = 0;

    /// @{ Fill state (build mode).
    CachedBlock fillBlock_;
    std::vector<uint64_t> fillPtrs_;
    uint64_t fillStartIp_ = 0;
    /// @}

    void restartFill();
};

} // namespace xbs

#endif // XBS_BBTC_BBTC_FRONTEND_HH
