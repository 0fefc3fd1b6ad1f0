#ifndef PUMI_DIST_PLAN_HPP
#define PUMI_DIST_PLAN_HPP

/// \file plan.hpp
/// \brief One exchange plan for the exchanges the part tables fix: the
/// solver's sums and the shared and ghost tag syncs.
///
/// The part boundary is a star forest (paper Sec. II-B). A shared entity's
/// root is its owner copy and its leaves are its other copies; a ghosted
/// entity's root is its real copy and its leaves are its ghosts. A Plan has
/// one lane per (root part, leaf part) pair. Each side lists its entities
/// of a lane sorted by the root's handle: the root knows that handle and
/// each leaf's remote or ghost-source record names it, so both sides agree
/// slot by slot and building a plan sends no message. A plan trusts copy
/// symmetry, which the commit gate's verify() checks.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "dist/network.hpp"
#include "dist/types.hpp"
#include "pcu/buffer.hpp"
#include "pcu/error.hpp"

namespace dist {

class PartedMesh;

class Plan {
 public:
  /// One side of a lane: the part at the other end and this side's
  /// entities, in the root's handle order.
  struct Lane {
    PartId peer = -1;
    std::vector<core::Ent> items;
  };

  /// Shared entities (of dimension `dim` only, when it is >= 0).
  [[nodiscard]] static Plan shared(const PartedMesh& pm, int dim = -1);
  /// Ghosted entities.
  [[nodiscard]] static Plan ghosts(const PartedMesh& pm);

  /// Part `p`'s lanes as root (peers are leaf parts), by peer.
  [[nodiscard]] const std::vector<Lane>& rootLanes(PartId p) const {
    return roots_[static_cast<std::size_t>(p)];
  }
  /// Part `p`'s lanes as leaf (peers are root parts), by peer.
  [[nodiscard]] const std::vector<Lane>& leafLanes(PartId p) const {
    return leaves_[static_cast<std::size_t>(p)];
  }

  /// Root to leaves, one payload per lane: the sender calls write(part,
  /// item, pcu::OutBuffer&) for each item of its side, the receiver
  /// read(part, item, pcu::InBuffer&) for each item of its side, payloads
  /// in delivery order (ascending source part). A payload from a part with
  /// no lane, or one its reads overrun or do not use up, throws
  /// pcu::Error(kProtocol) naming (to, from).
  template <typename Write, typename Read>
  void bcast(Network& net, Write&& write, Read&& read) const {
    move(net, roots_, leaves_, write, read);
  }
  /// Leaves to root, as bcast().
  template <typename Write, typename Read>
  void reduce(Network& net, Write&& write, Read&& read) const {
    move(net, leaves_, roots_, write, read);
  }

 private:
  using Lanes = std::vector<std::vector<Lane>>;  ///< by part

  template <typename Slots>
  static Plan build(const PartedMesh& pm, Slots&& slots);
  [[noreturn]] static void mismatch(PartId to, PartId from,
                                    const std::string& what);

  template <typename Write, typename Read>
  static void move(Network& net, const Lanes& out, const Lanes& in,
                   Write& write, Read& read) {
    for (std::size_t p = 0; p < out.size(); ++p)
      for (const Lane& lane : out[p]) {
        pcu::OutBuffer payload;
        for (core::Ent e : lane.items)
          write(static_cast<PartId>(p), e, payload);
        net.send(static_cast<PartId>(p), lane.peer, std::move(payload));
      }
    net.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
      const auto& lanes = in[static_cast<std::size_t>(to)];
      const auto lane = std::lower_bound(
          lanes.begin(), lanes.end(), from,
          [](const Lane& l, PartId q) { return l.peer < q; });
      if (lane == lanes.end() || lane->peer != from)
        mismatch(to, from, "payload on no lane");
      try {
        for (core::Ent e : lane->items) read(to, e, body);
      } catch (const pcu::Error& err) {
        if (err.code() != pcu::ErrorCode::kProtocol) throw;
        mismatch(to, from, err.detail());
      }
      if (!body.done())
        mismatch(to, from, std::to_string(body.remaining()) + " bytes past " +
                               std::to_string(lane->items.size()) + " items");
    });
  }

  Lanes roots_;
  Lanes leaves_;
};

}  // namespace dist

#endif  // PUMI_DIST_PLAN_HPP
