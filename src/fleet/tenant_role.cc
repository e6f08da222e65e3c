#include "fleet/tenant_role.h"

namespace harmonia {

TenantRole::TenantRole(const std::string &kind, RoleRequirements reqs)
    : Role(kind, RoleArch::LookAside, std::move(reqs))
{
}

RoleRequirements
TenantRole::lightRequirements(const std::string &kind,
                              std::uint64_t lut)
{
    RoleRequirements r;
    r.name = kind;
    r.needsHost = true;
    r.hostQueues = 4;
    r.roleLogic = {lut, lut * 2, 4, 0, 0};
    r.roleLoc = 800;
    return r;
}

std::uint32_t
TenantRole::valueOf(std::uint32_t key) const
{
    const auto it = table_.find(key);
    return it != table_.end() ? it->second : 0;
}

void
TenantRole::tick()
{
    // Pure look-aside: all work happens in executeCommand.
}

CommandResult
TenantRole::executeCommand(std::uint16_t code,
                           const std::vector<std::uint32_t> &data)
{
    if (code == kCmdTableWrite) {
        if (data.size() < 2)
            return {kCmdBadArgument, {}};
        if (!active())
            return {kCmdInternalError, {}};
        table_[data[0]] = data[1];
        ++writes_;
        tableWrites_.inc();
        return {kCmdOk, {static_cast<std::uint32_t>(table_.size())}};
    }
    if (code == kCmdTableRead) {
        if (data.empty())
            return {kCmdBadArgument, {}};
        const auto it = table_.find(data[0]);
        return {kCmdOk,
                {it != table_.end() ? 1u : 0u,
                 it != table_.end() ? it->second : 0u}};
    }
    return Role::executeCommand(code, data);
}

std::vector<std::uint32_t>
TenantRole::snapshotPayload() const
{
    std::vector<std::uint32_t> payload;
    payload.reserve(3 + table_.size() * 2);
    payload.push_back(static_cast<std::uint32_t>(table_.size()));
    for (const auto &[key, value] : table_) {
        payload.push_back(key);
        payload.push_back(value);
    }
    payload.push_back(static_cast<std::uint32_t>(writes_ >> 32));
    payload.push_back(static_cast<std::uint32_t>(writes_));
    return payload;
}

CheckpointError
TenantRole::restorePayload(const std::vector<std::uint32_t> &payload)
{
    if (payload.size() < 3)
        return CheckpointError::BadPayload;
    const std::size_t count = payload[0];
    if (payload.size() != 3 + count * 2)
        return CheckpointError::BadPayload;
    std::map<std::uint32_t, std::uint32_t> table;
    for (std::size_t i = 0; i < count; ++i)
        table[payload[1 + i * 2]] = payload[2 + i * 2];
    table_ = std::move(table);
    writes_ = (static_cast<std::uint64_t>(payload[1 + count * 2])
               << 32) |
              payload[2 + count * 2];
    return CheckpointError::Ok;
}

} // namespace harmonia
