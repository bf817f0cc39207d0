#ifndef LEASEOS_OS_SYSTEM_SERVER_H
#define LEASEOS_OS_SYSTEM_SERVER_H

/**
 * @file
 * The system_server process: owns and wires all system services.
 *
 * Construction order matters only for the internal couplings: the power
 * manager's full-wakelock set feeds the display policy, which feeds the
 * CPU's screen wake source.
 */

#include <array>
#include <memory>

#include "os/activity_manager_service.h"
#include "os/alarm_manager_service.h"
#include "os/audio_session_service.h"
#include "os/binder.h"
#include "os/bluetooth_service.h"
#include "os/display_manager_service.h"
#include "os/exception_note_handler.h"
#include "os/location_manager_service.h"
#include "os/power_manager_service.h"
#include "os/sensor_manager_service.h"
#include "os/wifi_manager_service.h"
#include "power/audio_model.h"
#include "power/cpu_model.h"
#include "power/gps_model.h"
#include "power/radio_model.h"
#include "power/screen_model.h"
#include "power/sensor_model.h"

namespace leaseos::os {

/**
 * Container wiring all system services over the hardware models.
 */
class SystemServer
{
  public:
    SystemServer(sim::Simulator &sim, power::CpuModel &cpu,
                 power::ScreenModel &screen, power::GpsModel &gps,
                 power::RadioModel &radio, power::SensorModel &sensors,
                 power::AudioModel &audio,
                 power::BluetoothModel &bluetooth,
                 power::EnergyAccountant &accountant);

    PowerManagerService &powerManager() { return *powerManager_; }
    LocationManagerService &locationManager() { return *locationManager_; }
    SensorManagerService &sensorManager() { return *sensorManager_; }
    WifiManagerService &wifiManager() { return *wifiManager_; }
    DisplayManagerService &displayManager() { return *displayManager_; }
    AlarmManagerService &alarmManager() { return *alarmManager_; }
    ActivityManagerService &activityManager() { return *activityManager_; }
    ExceptionNoteHandler &exceptionHandler() { return *exceptionHandler_; }
    AudioSessionService &audioSessions() { return *audioSessions_; }
    BluetoothService &bluetoothService() { return *bluetoothService_; }
    power::AudioModel &audio() { return audio_; }

    /** The six token services, in construction order. */
    std::array<ResourceService *, 6>
    resourceServices()
    {
        return {powerManager_.get(),   locationManager_.get(),
                sensorManager_.get(),  wifiManager_.get(),
                audioSessions_.get(),  bluetoothService_.get()};
    }

    TokenAllocator &tokens() { return tokens_; }

  private:
    TokenAllocator tokens_;
    power::AudioModel &audio_;
    std::unique_ptr<PowerManagerService> powerManager_;
    std::unique_ptr<LocationManagerService> locationManager_;
    std::unique_ptr<SensorManagerService> sensorManager_;
    std::unique_ptr<WifiManagerService> wifiManager_;
    std::unique_ptr<DisplayManagerService> displayManager_;
    std::unique_ptr<AlarmManagerService> alarmManager_;
    std::unique_ptr<ActivityManagerService> activityManager_;
    std::unique_ptr<ExceptionNoteHandler> exceptionHandler_;
    std::unique_ptr<AudioSessionService> audioSessions_;
    std::unique_ptr<BluetoothService> bluetoothService_;
};

} // namespace leaseos::os

#endif // LEASEOS_OS_SYSTEM_SERVER_H
