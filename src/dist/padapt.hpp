#ifndef PUMI_DIST_PADAPT_HPP
#define PUMI_DIST_PADAPT_HPP

/// \file padapt.hpp
/// \brief Parallel mesh adaptation: size-field-driven refinement of a
/// distributed mesh (the paper's central workflow — "the application of
/// operations like mesh adaptation will change the mesh in general ways",
/// Sec. I; parallel mesh modification per Alauzet/Li/Seol/Shephard [15]).
///
/// Each refinement pass:
///  1. every part marks its over-long edges; marks on shared edges are
///     forwarded to the owning part, which decides and broadcasts the
///     split (with the snapped midpoint coordinates computed once, so all
///     copies create bitwise-identical vertices);
///  2. every part executes its splits in a global deterministic order
///     (sorted by owner key), which guarantees parts triangulate shared
///     faces identically when several edges of one face split in a pass;
///  3. midpoint vertices of shared edges are linked across parts (the
///     owner gathers and redistributes the copy lists);
///  4. the remaining new part-boundary entities (sub-edges, face children,
///     face-interior edges) are discovered by signature rendezvous: every
///     new entity whose vertices are all shared sends its sorted
///     vertex-key signature to a rendezvous part; matching signatures are
///     linked as remote copies;
///  5. stale boundary records of split (destroyed) entities are swept.
///
/// The result verifies under PartedMesh::verify() and conforms across
/// parts: a shared face's children agree on every holding part.

#include "adapt/quality.hpp"
#include "adapt/sizefield.hpp"
#include "adapt/transfer.hpp"
#include "dist/partedmesh.hpp"

namespace dist {

struct PartedRefineOptions {
  double ratio = 1.5;  ///< split edges longer than ratio * size(midpoint)
  int max_passes = 12;
  adapt::SolutionTransfer* transfer = nullptr;
};

struct PartedRefineStats {
  int passes = 0;
  std::size_t splits = 0;  ///< total splits, counting each edge once
};

/// Refine the distributed mesh under `size`. Requires no ghosts. When the
/// integrity armor is active the refine is a commit point: it audits on
/// entry and seals on exit (so does coarsenParted).
PartedRefineStats refineParted(PartedMesh& pm, const adapt::SizeField& size,
                               const PartedRefineOptions& opts = {});

struct PartedCoarsenOptions {
  double ratio = 0.6;  ///< collapse edges shorter than ratio * size
  int max_passes = 8;
  adapt::SolutionTransfer* transfer = nullptr;
};

struct PartedCoarsenStats {
  int passes = 0;
  std::size_t collapses = 0;
};

/// Coarsen the distributed mesh under `size` with part-local edge
/// collapses: only cavities with no part-boundary entity are collapsed, so
/// no coordination is needed and the boundary is untouched (the standard
/// strategy — interleave with migration/ParMA to move boundaries off
/// over-refined regions when deeper coarsening is required).
PartedCoarsenStats coarsenParted(PartedMesh& pm, const adapt::SizeField& size,
                                 const PartedCoarsenOptions& opts = {});

/// Parallel mesh optimization: smart Laplacian smoothing on every part
/// with part-boundary vertices held fixed (their copies could not move
/// consistently without coordination); interior quality improves, the
/// distributed representation is untouched.
adapt::SmoothStats smoothParted(PartedMesh& pm,
                                const adapt::SmoothOptions& opts = {});

}  // namespace dist

#endif  // PUMI_DIST_PADAPT_HPP
