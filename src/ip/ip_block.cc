#include "ip/ip_block.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace harmonia {

void
RegisterFile::define(const RegisterDesc &desc, std::uint32_t init)
{
    if (regs_.count(desc.addr))
        fatal("register address 0x%llx already defined",
              static_cast<unsigned long long>(desc.addr));
    if (byName_.count(desc.name))
        fatal("register name '%s' already defined", desc.name.c_str());
    Slot slot;
    slot.desc = desc;
    slot.value = init;
    regs_.emplace(desc.addr, std::move(slot));
    byName_.emplace(desc.name, desc.addr);
}

const RegisterFile::Slot &
RegisterFile::slotAt(Addr addr) const
{
    auto it = regs_.find(addr);
    if (it == regs_.end())
        fatal("access to undefined register 0x%llx",
              static_cast<unsigned long long>(addr));
    return it->second;
}

RegisterFile::Slot &
RegisterFile::slotAt(Addr addr)
{
    return const_cast<Slot &>(
        static_cast<const RegisterFile *>(this)->slotAt(addr));
}

std::uint32_t
RegisterFile::read(Addr addr) const
{
    const Slot &s = slotAt(addr);
    if (s.readFn)
        return s.readFn(s.value);
    return s.value;
}

void
RegisterFile::write(Addr addr, std::uint32_t value)
{
    owner_->noteMutation();
    Slot &s = slotAt(addr);
    if (s.desc.readOnly)
        fatal("write to read-only register '%s'", s.desc.name.c_str());
    s.value = value;
    if (s.writeFn)
        s.writeFn(value);
}

std::uint32_t
RegisterFile::readByName(const std::string &name) const
{
    return read(addrOf(name));
}

void
RegisterFile::writeByName(const std::string &name, std::uint32_t value)
{
    write(addrOf(name), value);
}

void
RegisterFile::onRead(Addr addr, ReadHandler fn)
{
    slotAt(addr).readFn = std::move(fn);
}

void
RegisterFile::onWrite(Addr addr, WriteHandler fn)
{
    slotAt(addr).writeFn = std::move(fn);
}

void
RegisterFile::poke(Addr addr, std::uint32_t value)
{
    slotAt(addr).value = value;
}

std::uint32_t
RegisterFile::peek(Addr addr) const
{
    return slotAt(addr).value;
}

bool
RegisterFile::contains(Addr addr) const
{
    return regs_.count(addr) != 0;
}

Addr
RegisterFile::addrOf(const std::string &name) const
{
    auto it = byName_.find(name);
    if (it == byName_.end())
        fatal("unknown register '%s'", name.c_str());
    return it->second;
}

std::vector<RegisterDesc>
RegisterFile::descriptors() const
{
    std::vector<RegisterDesc> out;
    out.reserve(regs_.size());
    for (const auto &[addr, slot] : regs_)
        out.push_back(slot.desc);
    return out;
}

IpBlock::IpBlock(std::string name, Vendor vendor, Protocol data_protocol,
                 unsigned data_width_bits, double clock_mhz)
    : Component(std::move(name)), vendor_(vendor),
      dataProtocol_(data_protocol), dataWidthBits_(data_width_bits),
      clockMhz_(clock_mhz)
{
    if (data_width_bits == 0 || data_width_bits % 8 != 0)
        fatal("IP '%s': data width %u is not a whole number of bytes",
              this->name().c_str(), data_width_bits);
}

std::vector<std::string>
IpBlock::roleOrientedConfigs() const
{
    std::vector<std::string> out;
    for (const ConfigItem &c : configs_)
        if (c.scope == ConfigScope::RoleOriented)
            out.push_back(c.name);
    return out;
}

std::size_t
IpBlock::applyInitSequence()
{
    std::size_t ops = 0;
    for (const RegOp &op : initSeq_) {
        const Addr addr = regs_.addrOf(op.regName);
        switch (op.kind) {
          case RegOp::Kind::Write:
            regs_.write(addr, op.value);
            break;
          case RegOp::Kind::Read:
            (void)regs_.read(addr);
            break;
          case RegOp::Kind::WaitBit:
            // The model's status bits settle immediately; hardware
            // would poll here, which still counts as one software op.
            (void)regs_.read(addr);
            break;
        }
        ++ops;
    }
    initialized_ = true;
    return ops;
}

void
IpBlock::reset()
{
    noteMutation();
    initialized_ = false;
}

void
IpBlock::addConfig(ConfigItem item)
{
    configs_.push_back(std::move(item));
}

void
IpBlock::addPort(PortDesc port)
{
    ports_.push_back(std::move(port));
}

void
IpBlock::addInitOp(RegOp op)
{
    initSeq_.push_back(std::move(op));
}

void
IpBlock::addDependency(const std::string &key, const std::string &value)
{
    deps_[key] = value;
}

PropertyDiff
propertyDiff(const IpBlock &a, const IpBlock &b)
{
    auto symmetricDiff = [](const std::set<std::string> &x,
                            const std::set<std::string> &y) {
        std::size_t n = 0;
        for (const auto &e : x)
            if (!y.count(e))
                ++n;
        for (const auto &e : y)
            if (!x.count(e))
                ++n;
        return n;
    };

    std::set<std::string> pa, pb;
    for (const PortDesc &p : a.ports())
        pa.insert(p.name);
    for (const PortDesc &p : b.ports())
        pb.insert(p.name);

    std::set<std::string> ca, cb;
    for (const ConfigItem &c : a.configItems())
        ca.insert(c.name);
    for (const ConfigItem &c : b.configItems())
        cb.insert(c.name);

    return {symmetricDiff(pa, pb), symmetricDiff(ca, cb)};
}

std::size_t
migrationRegOps(const IpBlock &from, const IpBlock &to)
{
    // Ops the new device needs that the old recipe lacks must be
    // added; ops the old recipe had that no longer exist must be
    // removed; ops present in both but at a different position or with
    // a different value must be audited/changed. Computed as the ops
    // outside the longest common subsequence of the two recipes.
    const auto &f = from.initSequence();
    const auto &t = to.initSequence();
    std::vector<std::vector<std::size_t>> lcs(
        f.size() + 1, std::vector<std::size_t>(t.size() + 1, 0));
    for (std::size_t i = 1; i <= f.size(); ++i) {
        for (std::size_t j = 1; j <= t.size(); ++j) {
            if (f[i - 1] == t[j - 1])
                lcs[i][j] = lcs[i - 1][j - 1] + 1;
            else
                lcs[i][j] = std::max(lcs[i - 1][j], lcs[i][j - 1]);
        }
    }
    const std::size_t common = lcs[f.size()][t.size()];
    return (f.size() - common) + (t.size() - common);
}

} // namespace harmonia
