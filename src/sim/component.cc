#include "sim/component.h"

#include "sim/engine.h"

namespace harmonia {

Component::Component(std::string name) : name_(std::move(name))
{
}

bool
Component::insideEdge() const
{
    return engine_ != nullptr && engine_->committing_;
}

void
Component::noteHostInput() const
{
    engine_->touch(domain_);
}

} // namespace harmonia
