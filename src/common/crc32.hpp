#ifndef PUMI_COMMON_CRC32_HPP
#define PUMI_COMMON_CRC32_HPP

/// \file crc32.hpp
/// \brief Checksum primitives shared by framing, I/O, and integrity layers.
///
/// Two independent polynomials, deliberately kept apart:
///
///  - crc32(): CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). This is the
///    *persisted-format* checksum — message frames, pario chunk trailers and
///    MANIFEST records, BuddyJournal dedup keys, mesh fingerprints all store
///    its value on disk or compare it across ranks. Its byte-for-byte output
///    is a compatibility contract and must never change.
///
///  - crc32c(): CRC-32C (Castagnoli, reflected, poly 0x82F63B78). This is
///    the *in-memory integrity* checksum used by core::integrity's sectioned
///    ledgers. On x86-64 with SSE4.2 it compiles to the hardware crc32
///    instruction (~an order of magnitude faster than the table walk), with
///    a scalar table fallback elsewhere; both paths produce identical
///    values, so ledgers are portable across builds.
///
/// The table walks are slicing-by-8 (eight bytes per step through eight
/// derived tables); crcUpdateBytewise keeps the one-byte reference walk
/// the tests hold them to.
///
/// Historically crc32 lived in pcu::faults — integrity hashing does not
/// belong to the fault injector, so it moved here; pcu::faults::crc32
/// remains as a thin forwarding wrapper for the framing layer's spelling.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#define PUMI_CRC32C_HW 1        // hardware path compiled in unconditionally
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PUMI_CRC32C_HW 2        // hardware path behind a runtime CPU check
#else
#define PUMI_CRC32C_HW 0        // scalar table walk only
#endif

namespace common {

namespace detail {

/// Slicing-by-8 lookup tables for the requested reflected polynomial:
/// t[0] is the classic byte table, t[k][i] advances t[k-1][i] by one more
/// zero byte, so eight table reads fold eight input bytes at once.
template <std::uint32_t Poly>
inline const std::array<std::array<std::uint32_t, 256>, 8>& crcTables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? Poly ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  return tables;
}

/// Byte-at-a-time reference walk (the oracle the sliced walk is tested
/// against, and the tail of every sliced walk).
template <std::uint32_t Poly>
inline std::uint32_t crcUpdateBytewise(std::uint32_t c, const std::byte* data,
                                       std::size_t n) {
  const auto& t0 = crcTables<Poly>()[0];
  for (std::size_t i = 0; i < n; ++i)
    c = t0[(c ^ static_cast<std::uint8_t>(data[i])) & 0xFFu] ^ (c >> 8);
  return c;
}

/// Slicing-by-8 walk: same values as crcUpdateBytewise, several times the
/// throughput. The 8-byte loads are little-endian by construction of the
/// tables, so big-endian hosts take the byte walk.
template <std::uint32_t Poly>
inline std::uint32_t crcUpdateScalar(std::uint32_t c, const std::byte* data,
                                     std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = crcTables<Poly>();
    for (; n >= 8; data += 8, n -= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, data, 4);
      std::memcpy(&hi, data + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  return crcUpdateBytewise<Poly>(c, data, n);
}

#if PUMI_CRC32C_HW
/// CRC-32C update through the SSE4.2 crc32 instruction. When the build is
/// not already targeting SSE4.2 the function carries a target attribute, so
/// it may only be called behind a runtime CPU check (see crc32c below) —
/// the rest of the translation unit stays baseline x86-64.
#if PUMI_CRC32C_HW == 2
__attribute__((target("sse4.2")))
#endif
inline std::uint32_t crc32cUpdateHw(std::uint32_t c, const std::byte* data,
                                    std::size_t n) {
  // Align to 8 bytes, then run the 64-bit instruction, then mop up.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7u) != 0) {
    c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*data));
    ++data;
    --n;
  }
  std::uint64_t c64 = c;
  while (n >= 8) {
    std::uint64_t chunk;
    __builtin_memcpy(&chunk, data, 8);
    c64 = _mm_crc32_u64(c64, chunk);
    data += 8;
    n -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (n > 0) {
    c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*data));
    ++data;
    --n;
  }
  return c;
}
#endif

#if PUMI_CRC32C_HW == 2
/// One-time CPUID probe, cached; the integrity ledgers hash every covered
/// byte at every commit point, so the dispatch must be a predictable branch.
inline bool crc32cHwAvailable() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected) of a byte span. Persisted-format checksum;
/// output is a compatibility contract (known answer: "123456789" ->
/// 0xCBF43926). A slicing-by-8 table walk: every journal refresh and
/// checkpoint chunk passes through here.
inline std::uint32_t crc32(const std::byte* data, std::size_t n) {
  return detail::crcUpdateScalar<0xEDB88320u>(0xFFFFFFFFu, data, n) ^
         0xFFFFFFFFu;
}

/// CRC-32C (Castagnoli, reflected) of a byte span, seeded so calls chain:
/// crc32c(b, n, crc32c(a, m)) == crc32c(concat(a,b)). Known answer:
/// "123456789" -> 0xE3069283. Uses the SSE4.2 crc32 instruction when the
/// build targets it, or behind a one-time runtime CPU probe on generic
/// x86-64 builds; the scalar table walk covers everything else. All paths
/// produce identical values.
inline std::uint32_t crc32c(const std::byte* data, std::size_t n,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if PUMI_CRC32C_HW == 1
  c = detail::crc32cUpdateHw(c, data, n);
#elif PUMI_CRC32C_HW == 2
  if (detail::crc32cHwAvailable())
    c = detail::crc32cUpdateHw(c, data, n);
  else
    c = detail::crcUpdateScalar<0x82F63B78u>(c, data, n);
#else
  c = detail::crcUpdateScalar<0x82F63B78u>(c, data, n);
#endif
  return c ^ 0xFFFFFFFFu;
}

/// crc32c over a trivially-copyable value's object representation.
template <class T>
inline std::uint32_t crc32cOf(const T& v, std::uint32_t seed = 0) {
  return crc32c(reinterpret_cast<const std::byte*>(&v), sizeof(T), seed);
}

}  // namespace common

#endif  // PUMI_COMMON_CRC32_HPP
