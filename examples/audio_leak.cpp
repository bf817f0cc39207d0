/**
 * @file
 * The paper's opening example (§1), runnable: the October 2015 Facebook
 * iOS release leaked audio sessions after video playback, "leaving the
 * app doing nothing but staying awake in the background draining the
 * battery". Watch LeaseOS classify the silent open session as
 * Long-Holding and temporarily revoke it, and compare the battery cost.
 */

#include <iostream>

#include "apps/buggy/facebook_audio.h"
#include "harness/device.h"

using namespace leaseos;
using sim::operator""_min;

namespace {

void
run(harness::MitigationMode mode, const char *label)
{
    harness::DeviceConfig config;
    config.mode = mode;
    harness::Device device(config);
    auto &app = device.install<apps::FacebookAudio>();
    device.start();
    device.runFor(60_min);

    auto &svc = device.server().audioSessions();
    std::cout << label << " (1 simulated hour):\n";
    std::cout << "  session effectively open: "
              << svc.enabledSeconds(app.uid()) / 60.0 << " min, playing: "
              << svc.playingSeconds(app.uid()) / 60.0 << " min\n";
    std::cout << "  CPU kept awake: " << device.cpu().awakeSeconds() / 60.0
              << " min\n";
    std::cout << "  app power: " << device.appPowerMw(app.uid())
              << " mW\n";
    if (device.leaseos()) {
        auto &mgr = device.leaseos()->manager();
        std::cout << "  lease verdicts: LHB x"
                  << mgr.behaviorCount(lease::BehaviorType::LongHolding)
                  << ", deferrals " << mgr.totalDeferrals() << "\n";
    }
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "The Facebook iOS audio-session leak (paper §1): a "
                 "30-second video, then the session is never closed.\n\n";
    run(harness::MitigationMode::None, "vanilla OS");
    run(harness::MitigationMode::LeaseOS, "LeaseOS");
    std::cout << "The lease saw a session held with zero audible output "
                 "and revoked it between terms; the 30 seconds of real "
                 "playback were untouched.\n";
    return 0;
}
