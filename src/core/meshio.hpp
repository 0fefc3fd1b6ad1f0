#ifndef PUMI_CORE_MESHIO_HPP
#define PUMI_CORE_MESHIO_HPP

/// \file meshio.hpp
/// \brief Native binary serialization of a serial mesh.
///
/// Round-trips vertices (coordinates, classification), elements (topology,
/// canonical vertices, classification) and transportable tag data; lower-
/// dimension entities and their classification are re-derived on load from
/// the element closure, then overridden where the file recorded an
/// explicit classification. Classification references the model by
/// (dim, tag), so the same gmi::Model (or an equivalent one) must be
/// supplied at load time.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/mesh.hpp"

namespace gmi {
class Model;
}

namespace core {

/// Serialize `mesh` to bytes (the writeMesh file format, no file involved).
/// This is what the failure-tolerance buddy journal streams between ranks.
std::vector<std::byte> meshToBytes(const Mesh& mesh);

/// Rebuild a mesh from meshToBytes output, classifying against `model`.
/// Throws std::runtime_error on format mismatch; a truncated stream, a
/// count larger than the bytes left, or an unknown topology or tag type
/// code throws pcu::Error(kProtocol) before anything is allocated for it.
std::unique_ptr<Mesh> meshFromBytes(std::vector<std::byte> bytes,
                                    gmi::Model* model);

/// Write `mesh` to `path`. Throws std::runtime_error on I/O failure.
void writeMesh(const Mesh& mesh, const std::string& path);

/// Read a mesh written by writeMesh, classifying against `model`.
/// Throws std::runtime_error on I/O failure or format mismatch.
std::unique_ptr<Mesh> readMesh(const std::string& path, gmi::Model* model);

}  // namespace core

#endif  // PUMI_CORE_MESHIO_HPP
