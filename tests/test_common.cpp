#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/mat.hpp"
#include "common/rng.hpp"
#include "common/set.hpp"
#include "common/smallvec.hpp"
#include "common/tag.hpp"
#include "common/vec.hpp"

namespace {

using common::Vec3;

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(a / 2.0, Vec3(0.5, 1, 1.5));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
}

TEST(Vec3, DotCrossNorm) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_EQ(common::dot(x, y), 0.0);
  EXPECT_EQ(common::cross(x, y), z);
  EXPECT_EQ(common::cross(y, z), x);
  EXPECT_DOUBLE_EQ(common::norm(Vec3{3, 4, 0}), 5.0);
  EXPECT_EQ(common::normalized(Vec3{0, 0, 0}), Vec3(0, 0, 0));
  EXPECT_DOUBLE_EQ(common::norm(common::normalized(Vec3{1, 2, 3})), 1.0);
}

TEST(Vec3, Indexing) {
  Vec3 v{7, 8, 9};
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 9);
  v[1] = -1;
  EXPECT_EQ(v.y, -1);
}

TEST(Box3, IncludeAndQueries) {
  common::Box3 box;
  box.include(Vec3{0, 0, 0});
  box.include(Vec3{2, 1, 3});
  EXPECT_EQ(box.center(), Vec3(1, 0.5, 1.5));
  EXPECT_EQ(box.extent(), Vec3(2, 1, 3));
  EXPECT_EQ(box.longestAxis(), 2);
  EXPECT_TRUE(box.contains(Vec3{1, 0.5, 1}));
  EXPECT_FALSE(box.contains(Vec3{3, 0, 0}));
  EXPECT_TRUE(box.contains(Vec3{2.05, 1, 3}, 0.1));
}

TEST(Mat3, Identity) {
  const auto m = common::Mat3::identity();
  const Vec3 v{1, 2, 3};
  EXPECT_EQ(m * v, v);
}

TEST(Mat3, EigenDiagonal) {
  common::Mat3 m;
  m(0, 0) = 3;
  m(1, 1) = 1;
  m(2, 2) = 2;
  const auto e = common::symmetricEigen(m);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(e.vectors[0].x), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(e.vectors[1].z), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(e.vectors[2].y), 1.0, 1e-12);
}

TEST(Mat3, EigenGeneralSymmetric) {
  // Matrix with known spectrum: A = Q D Q^T built from a rotation.
  common::Mat3 m;
  // Symmetric matrix [[2,1,0],[1,2,0],[0,0,5]]: eigenvalues 5, 3, 1.
  m(0, 0) = 2;
  m(0, 1) = m(1, 0) = 1;
  m(1, 1) = 2;
  m(2, 2) = 5;
  const auto e = common::symmetricEigen(m);
  EXPECT_NEAR(e.values[0], 5.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  EXPECT_NEAR(e.values[2], 1.0, 1e-10);
  // Eigenvector check: m * v = lambda * v.
  for (int i = 0; i < 3; ++i) {
    const Vec3 mv = m * e.vectors[i];
    const Vec3 lv = e.vectors[i] * e.values[i];
    EXPECT_NEAR(common::distance(mv, lv), 0.0, 1e-9);
  }
}

TEST(Rng, DeterministicGivenSeed) {
  common::Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
  }
  bool all_same = true;
  common::Rng a2(42);
  for (int i = 0; i < 10; ++i) all_same = all_same && (a2.next() == c.next());
  EXPECT_FALSE(all_same);
}

TEST(Rng, UniformRanges) {
  common::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    const long r = rng.range(5, 9);
    EXPECT_GE(r, 5);
    EXPECT_LE(r, 9);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, UniformCoversRange) {
  common::Rng rng(11);
  int low = 0, high = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    if (u < 0.25) ++low;
    if (u > 0.75) ++high;
  }
  // Loose sanity: both quartiles populated.
  EXPECT_GT(low, 150);
  EXPECT_GT(high, 150);
}

TEST(SmallVec, InlineThenSpill) {
  common::SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 10; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(v[static_cast<std::uint32_t>(i)], i);
}

TEST(SmallVec, EraseValue) {
  common::SmallVec<int, 4> v;
  for (int i = 0; i < 6; ++i) v.push_back(i);
  EXPECT_TRUE(v.eraseValue(3));
  EXPECT_EQ(v.size(), 5u);
  EXPECT_FALSE(v.contains(3));
  EXPECT_FALSE(v.eraseValue(99));
  // All other elements still present.
  for (int i : {0, 1, 2, 4, 5}) EXPECT_TRUE(v.contains(i));
}

TEST(SmallVec, CopyAndMove) {
  common::SmallVec<int, 2> v;
  for (int i = 0; i < 5; ++i) v.push_back(i * i);
  common::SmallVec<int, 2> copy(v);
  EXPECT_EQ(copy.size(), 5u);
  EXPECT_EQ(copy[4], 16);
  common::SmallVec<int, 2> moved(std::move(v));
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved[3], 9);
  copy = moved;
  EXPECT_EQ(copy[2], 4);
  moved = std::move(copy);
  EXPECT_EQ(moved[1], 1);
}

TEST(SmallVec, ClearKeepsCapacity) {
  common::SmallVec<int, 2> v;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(42);
  EXPECT_EQ(v[0], 42);
}

TEST(ItemSet, AddRemoveContains) {
  common::ItemSet<int> s("regions");
  EXPECT_EQ(s.name(), "regions");
  EXPECT_TRUE(s.add(5));
  EXPECT_TRUE(s.add(7));
  EXPECT_FALSE(s.add(5));  // duplicate
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.remove(5));
  EXPECT_FALSE(s.remove(5));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
}

TEST(ItemSet, PreservesInsertionOrder) {
  common::ItemSet<int> s;
  for (int i : {9, 3, 7, 1}) s.add(i);
  EXPECT_EQ(s.items(), (std::vector<int>{9, 3, 7, 1}));
  s.remove(3);
  EXPECT_EQ(s.items(), (std::vector<int>{9, 7, 1}));
  s.add(3);
  EXPECT_EQ(s.items(), (std::vector<int>{9, 7, 1, 3}));
}

TEST(TagRegistry, CreateFindDestroy) {
  common::TagRegistry<int> tags;
  auto* weight = tags.create<double>("weight");
  EXPECT_EQ(tags.find("weight"), weight);
  EXPECT_EQ(tags.find("missing"), nullptr);
  EXPECT_THROW(tags.create<int>("weight"), std::invalid_argument);
  EXPECT_EQ(tags.list().size(), 1u);
  tags.destroy(weight);
  EXPECT_EQ(tags.find("weight"), nullptr);
}

TEST(TagRegistry, SetGetScalar) {
  common::TagRegistry<int> tags;
  auto* t = tags.create<long>("gid");
  tags.setScalar<long>(t, 3, 42L);
  EXPECT_EQ(tags.getScalar<long>(t, 3), 42L);
  EXPECT_TRUE(t->has(3));
  EXPECT_FALSE(t->has(4));
  EXPECT_THROW((void)tags.getScalar<long>(t, 4), std::out_of_range);
}

TEST(TagRegistry, MultiComponent) {
  common::TagRegistry<int> tags;
  auto* t = tags.create<double>("velocity", 3);
  EXPECT_EQ(t->components(), 3u);
  tags.set<double>(t, 1, {1.0, 2.0, 3.0});
  EXPECT_EQ(tags.get<double>(t, 1), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(TagRegistry, TypeMismatchThrows) {
  common::TagRegistry<int> tags;
  auto* t = tags.create<int>("count");
  tags.setScalar<int>(t, 0, 5);
  EXPECT_THROW((void)tags.getScalar<double>(t, 0), std::invalid_argument);
}

TEST(TagRegistry, RemoveAllAndCopyAll) {
  common::TagRegistry<int> tags;
  auto* a = tags.create<int>("a");
  auto* b = tags.create<double>("b");
  tags.setScalar<int>(a, 1, 10);
  tags.setScalar<double>(b, 1, 2.5);
  tags.copyAll(1, 2);
  EXPECT_EQ(tags.getScalar<int>(a, 2), 10);
  EXPECT_EQ(tags.getScalar<double>(b, 2), 2.5);
  tags.removeAll(1);
  EXPECT_FALSE(a->has(1));
  EXPECT_FALSE(b->has(1));
  EXPECT_TRUE(a->has(2));
  EXPECT_EQ(a->count(), 1u);
}

/// --- checksum primitives --------------------------------------------------

TEST(Crc32, MatchesIeeeKnownAnswers) {
  // CRC-32 (IEEE 802.3, reflected) — the persisted-format checksum. Its
  // byte-for-byte output is a compatibility contract (frames, pario chunk
  // trailers, journal dedup keys, fingerprints all store it), so pin the
  // standard vector set.
  const auto crcOf = [](const std::string& s) {
    return common::crc32(reinterpret_cast<const std::byte*>(s.data()),
                         s.size());
  };
  EXPECT_EQ(crcOf(""), 0x00000000u);
  EXPECT_EQ(crcOf("a"), 0xE8B7BE43u);
  EXPECT_EQ(crcOf("abc"), 0x352441C2u);
  EXPECT_EQ(crcOf("message digest"), 0x20159D7Fu);
  EXPECT_EQ(crcOf("123456789"), 0xCBF43926u);
  EXPECT_EQ(crcOf("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, SlicedWalkMatchesTheBytewiseOracle) {
  // crc32() folds eight bytes per step; the one-byte table walk is the
  // oracle. Every length 0..4096 at every 8-byte alignment covers the
  // sliced loop, its tail and every misaligned load. The Castagnoli scalar
  // fallback shares the sliced walk, so hold it to its oracle too.
  std::vector<std::byte> buf(4096 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::byte* p = buf.data() + off;
      const std::uint32_t oracle =
          common::detail::crcUpdateBytewise<0xEDB88320u>(0xFFFFFFFFu, p,
                                                         len) ^
          0xFFFFFFFFu;
      ASSERT_EQ(common::crc32(p, len), oracle)
          << "length " << len << " alignment " << off;
      ASSERT_EQ(
          common::detail::crcUpdateScalar<0x82F63B78u>(0u, p, len),
          common::detail::crcUpdateBytewise<0x82F63B78u>(0u, p, len))
          << "length " << len << " alignment " << off;
    }
  }
}

TEST(Crc32, EveryPathMatchesTheBytewiseOracle) {
  // crc32() folds 16-byte blocks with PCLMULQDQ when the CPU has it; the
  // sliced walk is the fallback. Every length 0..512 at every 16-byte
  // alignment covers the 64-byte entry bound, the 4-lane loop, the
  // single-lane loop and the tail; 1 MiB covers a long fold.
  std::vector<std::byte> buf((1u << 20) + 16);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>((i * 2246822519u) >> 11);
  auto oracle = [](const std::byte* p, std::size_t len) {
    return common::detail::crcUpdateBytewise<0xEDB88320u>(0xFFFFFFFFu, p,
                                                          len) ^
           0xFFFFFFFFu;
  };
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 512; ++len) {
      const std::byte* p = buf.data() + off;
      ASSERT_EQ(common::crc32(p, len), oracle(p, len))
          << "length " << len << " alignment " << off;
      ASSERT_EQ(common::detail::crcUpdateScalar<0xEDB88320u>(0xFFFFFFFFu, p,
                                                             len) ^
                    0xFFFFFFFFu,
                oracle(p, len))
          << "length " << len << " alignment " << off;
    }
  }
  for (std::size_t off : {std::size_t{0}, std::size_t{5}})
    EXPECT_EQ(common::crc32(buf.data() + off, 1u << 20),
              oracle(buf.data() + off, 1u << 20))
        << "1 MiB at alignment " << off;
#if PUMI_CRC32_CLMUL
  if (common::detail::crc32ClmulAvailable()) {
    for (std::size_t len = 64; len <= 512; len += 16) {
      ASSERT_EQ(common::detail::crc32UpdateClmul(0xFFFFFFFFu, buf.data() + 3,
                                                 len),
                common::detail::crcUpdateBytewise<0xEDB88320u>(
                    0xFFFFFFFFu, buf.data() + 3, len))
          << "folded length " << len;
    }
  }
#endif
}

TEST(Crc32c, MatchesCastagnoliKnownAnswersOnEveryPath) {
  // CRC-32C (Castagnoli) — the in-memory integrity checksum. The SSE4.2
  // hardware path and the scalar table fallback must agree bit-for-bit, so
  // exercise every alignment/length mix around the 8-byte fast loop.
  const std::string s = "123456789";
  const auto* b = reinterpret_cast<const std::byte*>(s.data());
  EXPECT_EQ(common::crc32c(b, 9), 0xE3069283u);
  EXPECT_EQ(common::crc32c(b, 0), 0u);
  // Seeded chaining: crc32c(suffix, crc32c(prefix)) == crc32c(whole), for
  // every split — this is what lets the ledger hash sections in blocks.
  for (std::size_t cut = 0; cut <= s.size(); ++cut)
    EXPECT_EQ(common::crc32c(b + cut, s.size() - cut, common::crc32c(b, cut)),
              0xE3069283u)
        << "chain split at " << cut;
  // Misaligned starts hit the scalar pre-loop before the 64-bit stride:
  // identical content must hash identically at every alignment.
  const std::string long_s(70, 'x');
  const auto* lb = reinterpret_cast<const std::byte*>(long_s.data());
  for (std::size_t off = 1; off < 8; ++off)
    EXPECT_EQ(common::crc32c(lb + off, 32), common::crc32c(lb, 32))
        << "alignment offset " << off;
  // The two polynomials are deliberately different checksums.
  EXPECT_NE(common::crc32c(b, 9), common::crc32(b, 9));
  // The public entry may dispatch to the SSE4.2 instruction at runtime;
  // whatever it picked must agree bit-for-bit with the scalar table walk
  // over a buffer long enough to exercise the 64-bit stride.
  std::vector<std::byte> buf(1024);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>((i * 131) ^ (i >> 3));
  const std::uint32_t scalar =
      common::detail::crcUpdateScalar<0x82F63B78u>(0xFFFFFFFFu, buf.data(),
                                                   buf.size()) ^
      0xFFFFFFFFu;
  EXPECT_EQ(common::crc32c(buf.data(), buf.size()), scalar);
}

TEST(Crc32c, ThreeStreamPathMatchesTheBytewiseOracle) {
  // Long spans run three crc32 streams over consecutive 80-byte, 256-byte
  // or 8 KiB blocks and join them by zero-shift tables. Lengths around both
  // block bounds, at every 8-byte alignment, and one long chained span
  // must all match the one-byte table walk.
  std::vector<std::byte> buf(3 * 8192 * 3 + 64);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>((i * 2654435761u) >> 17);
  auto oracle = [](const std::byte* p, std::size_t len, std::uint32_t seed) {
    return common::detail::crcUpdateBytewise<0x82F63B78u>(seed ^ 0xFFFFFFFFu,
                                                          p, len) ^
           0xFFFFFFFFu;
  };
  std::vector<std::size_t> lens;
  for (std::size_t base :
       {std::size_t{3 * 80}, std::size_t{3 * 256}, std::size_t{3 * 8192}})
    for (std::size_t d = 0; d < 24; ++d) {
      lens.push_back(base - 12 + d);
      lens.push_back(2 * base + d);
    }
  lens.push_back(buf.size() - 8);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len : lens) {
      const std::byte* p = buf.data() + off;
      ASSERT_EQ(common::crc32c(p, len), oracle(p, len, 0))
          << "length " << len << " alignment " << off;
      ASSERT_EQ(common::crc32c(p, len, 0x1234567u), oracle(p, len, 0x1234567u))
          << "seeded, length " << len << " alignment " << off;
    }
}

}  // namespace
