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
/// the tests hold them to. On x86-64, crc32() folds long spans with the
/// carry-less multiply instruction instead, chosen at run time the way
/// crc32c() chooses SSE4.2; the sliced walk stays as its fallback.
///
/// Historically crc32 lived in pcu::faults — integrity hashing does not
/// belong to the fault injector, so it moved here; pcu::faults::crc32
/// remains as a thin forwarding wrapper for the framing layer's spelling.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <smmintrin.h>
#include <wmmintrin.h>
#define PUMI_CRC32_CLMUL 1      // carry-less folding behind a runtime check
#else
#define PUMI_CRC32_CLMUL 0      // slicing-by-8 table walk only
#endif

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

/// The map "append N zero bytes" on a raw (un-inverted) CRC state, as four
/// byte-indexed tables: shift(c) = t[0][c & 0xff] ^ ... ^ t[3][c >> 24].
/// The map is linear over GF(2), so it is tabulated from the images of the
/// 32 single-bit states, each computed by the table walk over N zeros.
template <std::uint32_t Poly, std::size_t N>
inline const std::array<std::array<std::uint32_t, 256>, 4>& zeroShift() {
  static const auto tables = [] {
    static const std::array<std::byte, N> zeros{};
    std::array<std::uint32_t, 32> image{};
    for (std::size_t k = 0; k < 32; ++k)
      image[k] = crcUpdateScalar<Poly>(std::uint32_t{1} << k, zeros.data(), N);
    std::array<std::array<std::uint32_t, 256>, 4> t{};
    for (std::size_t j = 0; j < 4; ++j)
      for (std::uint32_t v = 0; v < 256; ++v)
        for (std::size_t b = 0; b < 8; ++b)
          if ((v >> b) & 1u) t[j][v] ^= image[8 * j + b];
    return t;
  }();
  return tables;
}

template <std::uint32_t Poly, std::size_t N>
inline std::uint32_t shiftZeros(std::uint32_t c) {
  const auto& t = zeroShift<Poly, N>();
  return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^ t[2][(c >> 16) & 0xFFu] ^
         t[3][c >> 24];
}

#if PUMI_CRC32C_HW
/// Three independent crc32 streams over consecutive N-byte blocks, joined
/// by shifting: the instruction's latency is three times its issue
/// interval, so one stream leaves two thirds of it idle. `data` is 8-byte
/// aligned and n >= 3 * N; returns the state after 3 * N bytes.
template <std::size_t N>
#if PUMI_CRC32C_HW == 2
__attribute__((target("sse4.2")))
#endif
inline std::uint64_t crc32cThreeWay(std::uint64_t c0, const std::byte* data) {
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (std::size_t i = 0; i < N; i += 8) {
    std::uint64_t w0;
    std::uint64_t w1;
    std::uint64_t w2;
    __builtin_memcpy(&w0, data + i, 8);
    __builtin_memcpy(&w1, data + N + i, 8);
    __builtin_memcpy(&w2, data + 2 * N + i, 8);
    c0 = _mm_crc32_u64(c0, w0);
    c1 = _mm_crc32_u64(c1, w1);
    c2 = _mm_crc32_u64(c2, w2);
  }
  constexpr std::uint32_t kPoly = 0x82F63B78u;
  std::uint32_t c = shiftZeros<kPoly, N>(static_cast<std::uint32_t>(c0)) ^
                    static_cast<std::uint32_t>(c1);
  c = shiftZeros<kPoly, N>(c) ^ static_cast<std::uint32_t>(c2);
  return c;
}

/// CRC-32C update through the SSE4.2 crc32 instruction. When the build is
/// not already targeting SSE4.2 the function carries a target attribute, so
/// it may only be called behind a runtime CPU check (see crc32c below) —
/// the rest of the translation unit stays baseline x86-64.
#if PUMI_CRC32C_HW == 2
__attribute__((target("sse4.2")))
#endif
inline std::uint32_t crc32cUpdateHw(std::uint32_t c, const std::byte* data,
                                    std::size_t n) {
  // Align to 8 bytes, then run the 64-bit instruction (three streams at a
  // time over long spans), then mop up.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7u) != 0) {
    c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*data));
    ++data;
    --n;
  }
  std::uint64_t c64 = c;
  // The 80-byte tier covers the integrity ledger's 256-byte blocks.
  constexpr std::size_t kLong = 8192;
  constexpr std::size_t kShort = 256;
  constexpr std::size_t kTiny = 80;
  for (; n >= 3 * kLong; data += 3 * kLong, n -= 3 * kLong)
    c64 = crc32cThreeWay<kLong>(c64, data);
  for (; n >= 3 * kShort; data += 3 * kShort, n -= 3 * kShort)
    c64 = crc32cThreeWay<kShort>(c64, data);
  for (; n >= 3 * kTiny; data += 3 * kTiny, n -= 3 * kTiny)
    c64 = crc32cThreeWay<kTiny>(c64, data);
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

#if PUMI_CRC32_CLMUL
/// One-time CPUID probe for the carry-less multiply path, cached.
inline bool crc32ClmulAvailable() {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

/// One 16-byte lane of `p`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i clmulLoad(
    const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Lane `x` advanced by 128 bits through the constant pair `k`, plus the
/// next lane `y`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i clmulFold(
    __m128i x, __m128i k, __m128i y) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       y);
}

/// CRC-32 (IEEE, reflected) update of the running state `c` over `n`
/// bytes, n >= 64 and a multiple of 16, by PCLMULQDQ folding (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel 2009): four 128-bit lanes fold 64 bytes per step,
/// then fold into one lane, reduce to 64 bits and Barrett-reduce to the
/// 32-bit remainder. The constants are x^k mod P(x) in the bit-reflected
/// domain. Same values as crcUpdateBytewise<0xEDB88320>; callable only
/// behind crc32ClmulAvailable().
__attribute__((target("pclmul,sse4.1"))) inline std::uint32_t
crc32UpdateClmul(std::uint32_t c, const std::byte* data, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  __m128i x1 = _mm_xor_si128(clmulLoad(data),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = clmulLoad(data + 16);
  __m128i x3 = clmulLoad(data + 32);
  __m128i x4 = clmulLoad(data + 48);
  data += 64;
  n -= 64;
  for (; n >= 64; data += 64, n -= 64) {
    x1 = clmulFold(x1, k1k2, clmulLoad(data));
    x2 = clmulFold(x2, k1k2, clmulLoad(data + 16));
    x3 = clmulFold(x3, k1k2, clmulLoad(data + 32));
    x4 = clmulFold(x4, k1k2, clmulLoad(data + 48));
  }
  x1 = clmulFold(x1, k3k4, x2);
  x1 = clmulFold(x1, k3k4, x3);
  x1 = clmulFold(x1, k3k4, x4);
  for (; n >= 16; data += 16, n -= 16)
    x1 = clmulFold(x1, k3k4, clmulLoad(data));
  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  // Barrett reduction to 32 bits.
  x2r = _mm_and_si128(x1, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x10);
  x2r = _mm_and_si128(x2r, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}
#endif

/// CRC-32 (IEEE) update of the running state: carry-less folding over the
/// 16-byte blocks of a long enough span when the CPU has it, the
/// slicing-by-8 walk for the rest and everywhere else.
inline std::uint32_t crc32Update(std::uint32_t c, const std::byte* data,
                                 std::size_t n) {
#if PUMI_CRC32_CLMUL
  if (n >= 64 && crc32ClmulAvailable()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = crc32UpdateClmul(c, data, blocks);
    data += blocks;
    n -= blocks;
  }
#endif
  return crcUpdateScalar<0xEDB88320u>(c, data, n);
}

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected) of a byte span. Persisted-format checksum;
/// output is a compatibility contract (known answer: "123456789" ->
/// 0xCBF43926). Every journal refresh and checkpoint chunk passes through
/// here: PCLMULQDQ folding on x86-64 CPUs that have it (probed once at run
/// time), the slicing-by-8 table walk otherwise. All paths produce
/// identical values.
inline std::uint32_t crc32(const std::byte* data, std::size_t n) {
  return detail::crc32Update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
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
