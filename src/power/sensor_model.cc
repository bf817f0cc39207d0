#include "power/sensor_model.h"

#include "sim/checkpoint.h"

#include <algorithm>

namespace leaseos::power {

namespace {

double &
accum(common::InlineVec<std::pair<Uid, double>, 8> &table, Uid uid)
{
    for (auto &entry : table)
        if (entry.first == uid) return entry.second;
    return table.emplace_back(uid, 0.0).second;
}

} // namespace

const char *
sensorTypeName(SensorType t)
{
    switch (t) {
      case SensorType::Accelerometer: return "accelerometer";
      case SensorType::Orientation: return "orientation";
      case SensorType::Gyroscope: return "gyroscope";
      case SensorType::Light: return "light";
    }
    return "unknown";
}

SensorModel::SensorModel(sim::Simulator &sim, EnergyAccountant &accountant,
                         const DeviceProfile &profile)
    : PowerComponent(sim, accountant, profile, "sensors"),
      channel_(accountant.makeChannel("sensors"))
{
    updatePower();
}

double
SensorModel::sensorMw(SensorType type) const
{
    switch (type) {
      case SensorType::Accelerometer: return profile_.accelerometerMw;
      case SensorType::Orientation: return profile_.orientationMw;
      case SensorType::Gyroscope: return profile_.gyroscopeMw;
      case SensorType::Light: return profile_.lightMw;
    }
    return 0.0;
}

void
SensorModel::updatePower()
{
    // Visit types in enum order and uids in sorted order — the exact
    // sequence the old nested std::map produced, so per-uid sums
    // accumulate in the same floating-point order.
    common::InlineVec<std::pair<Uid, double>, 8> merged;
    for (std::size_t t = 0; t < uses_.size(); ++t) {
        const UserList &users = uses_[t];
        if (users.empty()) continue;
        double each = sensorMw(static_cast<SensorType>(t)) /
            static_cast<double>(users.size());
        for (const auto &[uid, count] : users) accum(merged, uid) += each;
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    accountant_.setPowerShares(channel_, merged.span());
}

void
SensorModel::registerUse(SensorType type, Uid uid)
{
    UserList &users = usersFor(type);
    std::size_t i = 0;
    while (i < users.size() && users[i].first < uid) ++i;
    if (i < users.size() && users[i].first == uid) {
        ++users[i].second;
    } else {
        users.emplace_back(uid, 1);
        for (std::size_t j = users.size() - 1; j > i; --j)
            std::swap(users[j], users[j - 1]);
    }
    updatePower();
}

void
SensorModel::unregisterUse(SensorType type, Uid uid)
{
    UserList &users = usersFor(type);
    for (std::size_t i = 0; i < users.size(); ++i) {
        if (users[i].first != uid) continue;
        if (--users[i].second <= 0) users.erase(i);
        updatePower();
        return;
    }
}

bool
SensorModel::active(SensorType type) const
{
    return !usersFor(type).empty();
}

std::vector<Uid>
SensorModel::users(SensorType type) const
{
    std::vector<Uid> uids;
    for (const auto &[uid, count] : usersFor(type)) uids.push_back(uid);
    return uids;
}


template <class Io>
void
SensorModel::checkpoint(Io &io)
{
    io.beginSection("sensors", 1);
    for (UserList &users : uses_)
        io.seq(users, 4 + 8, [&](auto &user) {
            io.u32(user.first);
            io.i64(user.second);
        });
    io.endSection();
}

template void SensorModel::checkpoint(sim::CheckpointSaver &);
template void SensorModel::checkpoint(sim::CheckpointLoader &);

} // namespace leaseos::power
