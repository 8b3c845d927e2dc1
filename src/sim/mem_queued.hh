/**
 * @file
 * Queued memory backend: N priority-arbitrated data channels.
 *
 * Each channel has its own high/low priority queues and transfer
 * pipeline: the oldest high-priority request is granted first, then
 * the oldest low-priority one. A granted request occupies its channel
 * for transferCycles per block, which is what bounds peak bandwidth,
 * and delivers data accessLatency cycles after that, so later grants
 * pipeline behind its DRAM access. Blocks are address-interleaved
 * across channels (channel = block mod N), the standard fine-grained
 * interleaving that spreads both the demand stream and STMS's
 * sequential history-buffer stream. With one channel this is the
 * paper's Table 1 memory controller, which is how the `fixed` backend
 * is built.
 */

#ifndef STMS_SIM_MEM_QUEUED_HH
#define STMS_SIM_MEM_QUEUED_HH

#include <deque>
#include <vector>

#include "sim/mem_backend.hh"

namespace stms
{

class QueuedBackend final : public MemBackend
{
  public:
    QueuedBackend(EventQueue &events, const MemCtrlConfig &config,
                  std::uint32_t channels);

    void request(TrafficClass cls, Priority prio, Addr addr,
                 std::uint32_t blocks, Callback done) override;

    const MemCtrlStats &stats() const override { return stats_; }
    void resetStats() override;
    const LinearHistogram &
    lowPrioDelay() const override
    {
        return lowDelay_;
    }
    double utilization(Cycle elapsed) const override;
    std::uint32_t
    channels() const override
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    std::size_t
    pendingRequests() const override
    {
        std::size_t pending = 0;
        for (const Channel &channel : channels_)
            pending += channel.high.size() + channel.low.size();
        return pending;
    }

  private:
    struct Request
    {
        TrafficClass cls;
        std::uint32_t blocks;
        Callback done;
        Cycle arrival;
    };

    struct Channel
    {
        std::deque<Request> high;
        std::deque<Request> low;
        bool busy = false;
    };

    void grantNext(Channel &channel);
    void startTransfer(Channel &channel, Request request);

    EventQueue &events_;
    MemCtrlConfig config_;
    std::vector<Channel> channels_;
    MemCtrlStats stats_;
    LinearHistogram lowDelay_{64, 64};
};

} // namespace stms

#endif // STMS_SIM_MEM_QUEUED_HH
