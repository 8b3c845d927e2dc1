#include "sim/mem_queued.hh"

#include "common/log.hh"

namespace stms
{

QueuedBackend::QueuedBackend(EventQueue &events, const MemCtrlConfig &config,
                             std::uint32_t channels)
    : events_(events), config_(config), channels_(channels)
{
    stms_assert(config_.transferCycles > 0, "transferCycles must be > 0");
    stms_assert(channels > 0, "queued backend needs >= 1 channel");
}

void
QueuedBackend::request(TrafficClass cls, Priority prio, Addr addr,
                       std::uint32_t blocks, Callback done)
{
    account(stats_, cls, prio, blocks);

    if (config_.functional) {
        if (done)
            done(events_.now());
        return;
    }

    Channel &channel =
        channels_[blockNumber(addr) % channels_.size()];
    Request request{cls, blocks, std::move(done), events_.now()};
    auto &queue = (prio == Priority::High) ? channel.high : channel.low;
    queue.push_back(std::move(request));
    if (!channel.busy)
        grantNext(channel);
}

void
QueuedBackend::grantNext(Channel &channel)
{
    if (!channel.high.empty()) {
        Request request = std::move(channel.high.front());
        channel.high.pop_front();
        startTransfer(channel, std::move(request));
    } else if (!channel.low.empty()) {
        Request request = std::move(channel.low.front());
        channel.low.pop_front();
        lowDelay_.sample(events_.now() - request.arrival);
        startTransfer(channel, std::move(request));
    } else {
        channel.busy = false;
    }
}

void
QueuedBackend::startTransfer(Channel &channel, Request request)
{
    channel.busy = true;
    const Cycle occupancy =
        static_cast<Cycle>(request.blocks) * config_.transferCycles;
    stats_.busyCycles += occupancy;

    // Data is available one access latency plus the transfer time
    // after the grant; the channel frees after the transfer alone, so
    // later requests pipeline behind the DRAM access of this one.
    const Cycle data_ready =
        events_.now() + config_.accessLatency + occupancy;
    if (request.done) {
        events_.scheduleAt(data_ready,
                           [cb = std::move(request.done), data_ready]() {
                               cb(data_ready);
                           });
    }
    events_.schedule(occupancy,
                     [this, &channel]() { grantNext(channel); });
}

void
QueuedBackend::resetStats()
{
    stats_ = MemCtrlStats{};
    lowDelay_.reset();
}

double
QueuedBackend::utilization(Cycle elapsed) const
{
    const double capacity =
        static_cast<double>(elapsed) *
        static_cast<double>(channels_.size());
    return elapsed == 0 ? 0.0
                        : static_cast<double>(stats_.busyCycles) / capacity;
}

} // namespace stms
