#ifndef PUMI_DIST_TAGIO_HPP
#define PUMI_DIST_TAGIO_HPP

/// \file tagio.hpp
/// \brief Forwarding header: tag (de)serialization lives in core/tagio.hpp
/// so serial mesh I/O can reuse it; dist code keeps its spelling.

#include "core/tagio.hpp"

namespace dist {
using core::TagPlan;
using core::skipTags;
using core::unpackTags;
}  // namespace dist

#endif  // PUMI_DIST_TAGIO_HPP
