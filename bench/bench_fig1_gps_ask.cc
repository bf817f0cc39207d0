/**
 * @file
 * Reproduces Figure 1: BetterWeather's GPS try duration per 60 s interval
 * while a weak-signal environment (inside a building) denies it a lock,
 * on the lightly-used Nexus phone, for ~1 hour.
 *
 * Expected shape: in most one-minute windows the app spends a large share
 * (~60 %) of the time asking for GPS, and the fix count stays at zero —
 * power burned entirely in the Ask stage.
 */

#include <iostream>

#include "apps/buggy/better_weather.h"
#include "harness/device.h"
#include "harness/figure.h"
#include "harness/metrics.h"
#include "harness/result_sink.h"

using namespace leaseos;
using sim::operator""_s;
using sim::operator""_min;

int
main()
{
    harness::DeviceConfig cfg;
    cfg.profile = power::profiles::nexus6();
    harness::Device device(cfg);
    device.gpsEnv().setSignalGood(false); // weak signals in the building

    auto &app = device.install<apps::BetterWeather>();
    auto &lms = device.server().locationManager();

    harness::MetricsSampler sampler(device.simulator(), 60_s);
    Uid uid = app.uid();
    sampler.addDeltaGauge("gps_try_duration_s",
                          [&] { return lms.enabledSeconds(uid); });
    sampler.addDeltaGauge("failed_try_s",
                          [&] { return lms.noFixSeconds(uid); });
    sampler.start();

    device.start();
    device.runFor(65_min);

    std::cout << harness::figureHeader(
        "Figure 1",
        "BetterWeather's GPS try duration every 60s (weak-GPS building, "
        "Nexus). Paper shape: ~60% of each interval spent asking, no "
        "fix ever acquired.");
    std::cout << harness::seriesFigure(
        {&sampler.series("gps_try_duration_s"),
         &sampler.series("failed_try_s")});
    harness::maybeExportSeriesCsv("fig1_gps_ask",
                                  {&sampler.series("gps_try_duration_s"),
                                   &sampler.series("failed_try_s")});

    double mean_try = sampler.series("gps_try_duration_s").mean();
    std::cout << "\nmean GPS try duration per 60s interval: " << mean_try
              << " s (" << 100.0 * mean_try / 60.0 << "% of interval)\n";
    std::cout << "fixes acquired: " << lms.fixCount(uid)
              << " (paper: the app never gets the GPS information)\n";
    std::cout << "weather updates delivered: " << app.weatherUpdates()
              << "\n";
    return 0;
}
