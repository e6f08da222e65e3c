#include "sim/component.h"

#include "sim/engine.h"

namespace harmonia {

Component::Component(std::string name) : name_(std::move(name))
{
}

Cycles
Component::cycle() const
{
    return clock_ ? clock_->cycle() : 0;
}

bool
Component::insideEdge() const
{
    return engine_ != nullptr && engine_->committing_;
}

void
Component::noteHostInput() const
{
    // A predicate may run another engine, whose ticks are not host
    // input to it.
    if (engine_ != nullptr && !engine_->committing_)
        engine_->hostInput_ = true;
}

} // namespace harmonia
