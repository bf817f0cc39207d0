#include "harness/experiment.h"

#include <memory>

#include "apps/registry.h"

namespace leaseos::harness {

sim::PeriodicHandle
installGlanceScript(Device &device, const MitigationRunOptions &opt)
{
    if (!opt.userGlances) return {};
    return installGlanceScript(device, opt.glanceInterval,
                               opt.glanceLength);
}

void
diurnalGlanceCadence(int localHour, sim::Time &interval, sim::Time &length)
{
    bool day = localHour >= 7 && localHour < 23;
    long intervalSec = day ? 30 + 10 * (localHour % 5)   // 30..70 s
                           : 180 + 60 * (localHour % 4); // 3..6 min
    long lengthSec = day ? 8 + localHour % 7 : 3;        // 8..14 s vs 3 s
    interval = sim::Time::fromSeconds(static_cast<double>(intervalSec));
    length = sim::Time::fromSeconds(static_cast<double>(lengthSec));
}

void
installDiurnalGlanceCycle(Device &device, int phase)
{
    struct Cycle {
        sim::PeriodicHandle glances;
        sim::PeriodicHandle retune;
    };
    auto cycle = std::make_shared<Cycle>();
    auto tune = [&device, cycle, phase] {
        int hour = static_cast<int>(device.simulator().now().seconds() /
                                    3600.0);
        sim::Time interval;
        sim::Time length;
        diurnalGlanceCadence((phase + hour) % 24, interval, length);
        cycle->glances = installGlanceScript(device, interval, length);
    };
    tune();
    cycle->retune = device.simulator().schedulePeriodicScoped(
        sim::Time::fromMinutes(60.0), tune);
}

RunSpec
mitigationCellSpec(const apps::BuggyAppSpec &spec, MitigationMode mode,
                   const MitigationRunOptions &opt)
{
    RunSpec run;
    run.name = spec.display + std::string(" / ") + mitigationModeName(mode);
    run.config = DeviceConfig{}
                     .withMode(mode)
                     .withProfile(opt.profile)
                     .withSeed(opt.seed);
    run.duration = opt.duration;
    run.setup.push_back(spec.trigger);
    run.apps.push_back(spec.install);
    if (opt.userGlances) {
        run.userGlances = true;
        run.glanceInterval = opt.glanceInterval;
        run.glanceLength = opt.glanceLength;
    }
    return run;
}

double
reductionPercent(double baselineMw, double mitigatedMw)
{
    if (baselineMw <= 0.0) return 0.0;
    return 100.0 * (1.0 - mitigatedMw / baselineMw);
}

} // namespace leaseos::harness
