#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "fec/gf256.hpp"
#include "fec/group_codec.hpp"
#include "fec/matrix.hpp"
#include "fec/reed_solomon.hpp"

namespace sharq::fec {
namespace {

// ---------- GF(256) ----------------------------------------------------------

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::add(7, 7), 0);
}

TEST(GF256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), 1), a);
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), 0), 0);
  }
}

TEST(GF256, MulCommutative) {
  for (int a = 1; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 11) {
      EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    }
  }
}

TEST(GF256, MulAssociative) {
  for (int a = 1; a < 256; a += 17) {
    for (int b = 1; b < 256; b += 23) {
      for (int c = 1; c < 256; c += 29) {
        EXPECT_EQ(GF256::mul(GF256::mul(a, b), c),
                  GF256::mul(a, GF256::mul(b, c)));
      }
    }
  }
}

TEST(GF256, DistributesOverAdd) {
  for (int a = 1; a < 256; a += 13) {
    for (int b = 0; b < 256; b += 19) {
      for (int c = 0; c < 256; c += 31) {
        EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
                  GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
      }
    }
  }
}

TEST(GF256, InverseRoundTrips) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = GF256::inverse(static_cast<GF256::Elem>(a));
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), inv), 1) << "a=" << a;
  }
}

TEST(GF256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; a += 5) {
    for (int b = 1; b < 256; b += 7) {
      const auto q = GF256::div(a, b);
      EXPECT_EQ(GF256::mul(q, b), a);
    }
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 37) {
    GF256::Elem acc = 1;
    for (unsigned n = 0; n < 16; ++n) {
      EXPECT_EQ(GF256::pow(static_cast<GF256::Elem>(a), n), acc);
      acc = GF256::mul(acc, static_cast<GF256::Elem>(a));
    }
  }
}

TEST(GF256, AlphaHasFullOrder) {
  // alpha = 2 generates the multiplicative group: powers repeat at 255.
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    const auto v = GF256::alpha_pow(i);
    EXPECT_FALSE(seen[v]) << "repeat at power " << i;
    seen[v] = true;
  }
}

TEST(GF256, MulAddMatchesScalarLoop) {
  std::vector<std::uint8_t> dst(257), src(257), expect(257);
  std::mt19937 rng(1);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = rng() & 0xff;
    src[i] = rng() & 0xff;
  }
  const GF256::Elem c = 0xA7;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    expect[i] = GF256::add(dst[i], GF256::mul(c, src[i]));
  }
  GF256::mul_add(dst.data(), src.data(), c, dst.size());
  EXPECT_EQ(dst, expect);
}

TEST(GF256, ScaleByZeroAndOne) {
  std::vector<std::uint8_t> v{1, 2, 3, 255};
  auto w = v;
  GF256::scale(w.data(), 1, w.size());
  EXPECT_EQ(w, v);
  GF256::scale(w.data(), 0, w.size());
  EXPECT_EQ(w, (std::vector<std::uint8_t>{0, 0, 0, 0}));
}

// ---------- Matrix ------------------------------------------------------------

TEST(Matrix, IdentityMultiplication) {
  Matrix id = Matrix::identity(5);
  Matrix v = Matrix::vandermonde(5, 5);
  EXPECT_EQ(id.multiply(v), v);
  EXPECT_EQ(v.multiply(id), v);
}

TEST(Matrix, VandermondeTopRowAllOnes) {
  Matrix v = Matrix::vandermonde(6, 4);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(v.at(0, c), 1);
}

TEST(Matrix, InvertRoundTrip) {
  Matrix v = Matrix::vandermonde(8, 8);
  Matrix inv = v;
  ASSERT_TRUE(inv.invert());
  EXPECT_EQ(v.multiply(inv), Matrix::identity(8));
}

TEST(Matrix, SingularDetected) {
  Matrix m(3, 3);
  // Two identical rows.
  for (int c = 0; c < 3; ++c) {
    m.at(0, c) = static_cast<GF256::Elem>(c + 1);
    m.at(1, c) = static_cast<GF256::Elem>(c + 1);
    m.at(2, c) = static_cast<GF256::Elem>(2 * c + 1);
  }
  EXPECT_FALSE(m.invert());
}

TEST(Matrix, SelectRows) {
  Matrix v = Matrix::vandermonde(6, 3);
  Matrix s = v.select_rows({5, 0, 2});
  EXPECT_EQ(s.rows(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(s.at(0, c), v.at(5, c));
    EXPECT_EQ(s.at(1, c), v.at(0, c));
    EXPECT_EQ(s.at(2, c), v.at(2, c));
  }
}

TEST(Matrix, AnyKRowsOfVandermondeInvertible) {
  Matrix v = Matrix::vandermonde(20, 5);
  std::mt19937 rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int> rows(20);
    std::iota(rows.begin(), rows.end(), 0);
    std::shuffle(rows.begin(), rows.end(), rng);
    rows.resize(5);
    Matrix sub = v.select_rows(rows);
    EXPECT_TRUE(sub.invert()) << "trial " << trial;
  }
}

// ---------- Reed-Solomon -------------------------------------------------------

std::vector<std::vector<std::uint8_t>> random_shards(int k, int size,
                                                     unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<std::uint8_t>> out(k);
  for (auto& s : out) {
    s.resize(size);
    for (auto& b : s) b = rng() & 0xff;
  }
  return out;
}

TEST(ReedSolomon, SystematicDataRowsAreIdentity) {
  ReedSolomon rs(8, 8);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_EQ(rs.generator().at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(ReedSolomon, RejectsBadParams) {
  EXPECT_THROW(ReedSolomon(0, 5), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 100), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(-1, 1), std::invalid_argument);
}

TEST(ReedSolomon, DecodeFromAllData) {
  ReedSolomon rs(4, 4);
  auto data = random_shards(4, 64, 11);
  std::vector<ReedSolomon::Shard> got;
  for (int i = 0; i < 4; ++i) got.push_back({i, data[i]});
  auto dec = rs.decode(got);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, data);
}

TEST(ReedSolomon, DecodeFromAllParity) {
  ReedSolomon rs(4, 4);
  auto data = random_shards(4, 64, 13);
  std::vector<ReedSolomon::Shard> got;
  for (int i = 4; i < 8; ++i) got.push_back({i, rs.encode_parity(i, data)});
  auto dec = rs.decode(got);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, data);
}

TEST(ReedSolomon, InsufficientShardsFails) {
  ReedSolomon rs(4, 4);
  auto data = random_shards(4, 16, 17);
  std::vector<ReedSolomon::Shard> got{{0, data[0]}, {1, data[1]},
                                      {2, data[2]}};
  EXPECT_FALSE(rs.decode(got).has_value());
}

TEST(ReedSolomon, DuplicatesIgnored) {
  ReedSolomon rs(3, 3);
  auto data = random_shards(3, 16, 19);
  std::vector<ReedSolomon::Shard> got{
      {0, data[0]}, {0, data[0]}, {0, data[0]}, {1, data[1]}};
  EXPECT_FALSE(rs.decode(got).has_value());
  got.push_back({4, rs.encode_parity(4, data)});
  auto dec = rs.decode(got);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, data);
}

// The view form writes each requested original to its own pointer (here
// one contiguous buffer) and leaves a null slot's original undecoded.
TEST(ReedSolomon, ViewDecodeFillsRequestedOriginals) {
  ReedSolomon rs(4, 4);
  const std::size_t size = 33;
  auto data = random_shards(4, size, 23);
  const auto p5 = rs.encode_parity(5, data);
  const auto p6 = rs.encode_parity(6, data);
  const std::vector<ReedSolomon::ShardView> views{
      {6, p6.data()}, {1, data[1].data()}, {5, p5.data()}, {3, data[3].data()}};

  std::vector<std::uint8_t> flat(4 * size, 0xAA);
  std::vector<std::uint8_t*> out{flat.data(), flat.data() + size,
                                 flat.data() + 2 * size, nullptr};
  ASSERT_TRUE(rs.decode(views, size, out.data()));
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(std::equal(data[d].begin(), data[d].end(),
                           flat.begin() + d * size))
        << "original " << d;
  }
  EXPECT_TRUE(std::all_of(flat.begin() + 3 * size, flat.end(),
                          [](std::uint8_t b) { return b == 0xAA; }));
  EXPECT_FALSE(rs.decode({views.begin(), views.begin() + 3}, size, out.data()));
}

struct RsParam {
  int k;
  int parity;
  int erase;  // how many data shards to erase
};

class RsRecovery : public ::testing::TestWithParam<RsParam> {};

TEST_P(RsRecovery, AnyKOfNRecovers) {
  const auto [k, parity, erase] = GetParam();
  ASSERT_LE(erase, parity);
  ReedSolomon rs(k, parity);
  auto data = random_shards(k, 100, 23 + k * 7 + parity);
  std::mt19937 rng(99 + erase);
  // Erase `erase` random data shards; replace with random parity shards.
  std::vector<int> data_ids(k);
  std::iota(data_ids.begin(), data_ids.end(), 0);
  std::shuffle(data_ids.begin(), data_ids.end(), rng);
  std::vector<int> parity_ids(parity);
  std::iota(parity_ids.begin(), parity_ids.end(), k);
  std::shuffle(parity_ids.begin(), parity_ids.end(), rng);

  std::vector<ReedSolomon::Shard> got;
  for (int i = erase; i < k; ++i) got.push_back({data_ids[i], data[data_ids[i]]});
  for (int i = 0; i < erase; ++i) {
    got.push_back({parity_ids[i], rs.encode_parity(parity_ids[i], data)});
  }
  std::shuffle(got.begin(), got.end(), rng);
  auto dec = rs.decode(got);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsRecovery,
    ::testing::Values(RsParam{1, 1, 1}, RsParam{2, 2, 1}, RsParam{2, 2, 2},
                      RsParam{4, 4, 3}, RsParam{8, 8, 8}, RsParam{16, 16, 5},
                      RsParam{16, 16, 16}, RsParam{16, 128, 16},
                      RsParam{32, 16, 16}, RsParam{64, 64, 64},
                      RsParam{100, 100, 99}, RsParam{16, 239, 16}));

// ---------- Group codec ---------------------------------------------------------

std::vector<ShardBuffer> share(const std::vector<std::vector<std::uint8_t>>& data) {
  std::vector<ShardBuffer> out;
  for (const auto& d : data) {
    out.push_back(std::make_shared<const std::vector<std::uint8_t>>(d));
  }
  return out;
}

std::vector<std::uint8_t> concat(
    const std::vector<std::vector<std::uint8_t>>& data) {
  std::vector<std::uint8_t> out;
  for (const auto& d : data) out.insert(out.end(), d.begin(), d.end());
  return out;
}

// One decoder's storage, laid out as an engine keeps it (state, then a
// block of k index slots and the seen bits) over a lane's shard store;
// `dec` views it as group 0.
struct DecoderStore {
  explicit DecoderStore(const ReedSolomon& codec)
      : index(GroupDecoder::block_bytes(codec)),
        dec(codec, state, index.data(), shards, 0) {}
  DecoderStore(const DecoderStore&) = delete;
  DecoderStore& operator=(const DecoderStore&) = delete;
  DecoderState state;
  std::vector<std::uint8_t> index;
  ShardStore shards;
  GroupDecoder dec;
};

TEST(GroupCodec, EncoderRoundTripThroughParityOnly) {
  auto codec = std::make_shared<ReedSolomon>(5, 10);
  auto data = random_shards(5, 48, 31);
  GroupEncoder enc(codec, share(data));
  DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
  EXPECT_EQ(dec.deficit(), 5);
  for (int i = 5; i < 10; ++i) {
    EXPECT_TRUE(dec.add(i, enc.shard_shared(i)));
  }
  EXPECT_TRUE(dec.complete());
  EXPECT_EQ(dec.deficit(), 0);
  EXPECT_EQ(dec.reconstruct(), concat(data));
}

TEST(GroupCodec, DuplicateAddRejected) {
  auto codec = std::make_shared<ReedSolomon>(4, 4);
  auto data = random_shards(4, 8, 37);
  GroupEncoder enc(codec, share(data));
  DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
  EXPECT_TRUE(dec.add(2, enc.shard_shared(2)));
  EXPECT_FALSE(dec.add(2, enc.shard_shared(2)));
  EXPECT_EQ(dec.distinct(), 1);
  EXPECT_EQ(dec.distinct_data(), 1);
}

TEST(GroupCodec, OutOfRangeIndexRejected) {
  auto codec = std::make_shared<ReedSolomon>(4, 4);
  DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
  EXPECT_FALSE(dec.add(-1, nullptr));
  EXPECT_FALSE(dec.add(8, nullptr));
  EXPECT_FALSE(dec.has(100));
  EXPECT_EQ(dec.held(100), nullptr);
}

TEST(GroupCodec, MixedDataAndParity) {
  auto codec = std::make_shared<ReedSolomon>(6, 6);
  auto data = random_shards(6, 32, 41);
  GroupEncoder enc(codec, share(data));
  DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
  dec.add(0, enc.shard_shared(0));
  dec.add(3, enc.shard_shared(3));
  dec.add(7, enc.shard_shared(7));
  dec.add(9, enc.shard_shared(9));
  dec.add(10, enc.shard_shared(10));
  EXPECT_FALSE(dec.complete());
  EXPECT_TRUE(dec.reconstruct().empty());
  dec.add(11, enc.shard_shared(11));
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.reconstruct(), concat(data));
}

TEST(GroupCodec, EncoderValidatesShardCount) {
  auto codec = std::make_shared<ReedSolomon>(4, 4);
  auto data = random_shards(3, 8, 43);
  EXPECT_THROW(GroupEncoder(codec, share(data)), std::invalid_argument);
}

// Every holder shares one buffer: the encoder hands out its data buffers
// and its parity (encoded once), and the decoder keeps what it was given.
TEST(GroupCodec, HoldersShareOneBuffer) {
  auto codec = std::make_shared<ReedSolomon>(4, 4);
  const auto data = share(random_shards(4, 24, 47));
  GroupEncoder enc(codec, data);
  DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
  EXPECT_EQ(enc.shard_shared(1), data[1]);
  EXPECT_EQ(enc.shard_shared(5), enc.shard_shared(5));
  dec.add(1, enc.shard_shared(1));
  dec.add(5, enc.shard_shared(5));
  EXPECT_EQ(dec.held(1), data[1]);
  EXPECT_EQ(dec.held(5), enc.shard_shared(5));
  EXPECT_EQ(dec.held(0), nullptr);
}

// A lane store keeps one buffer per (group, index): the first one held is
// the one every later holder resolves to, and it leaves the store with its
// last holder.
TEST(ShardStore, OneBufferPerKeyUntilItsLastHolderReleases) {
  ShardStore store;
  const ShardBuffer a = std::make_shared<const std::vector<std::uint8_t>>(8, 1);
  const ShardBuffer b = std::make_shared<const std::vector<std::uint8_t>>(8, 1);
  EXPECT_EQ(store.find(3, 5), nullptr);
  EXPECT_EQ(store.hold(3, 5, a), a);
  EXPECT_EQ(store.hold(3, 5, b), a) << "a second buffer for one key";
  EXPECT_EQ(store.hold(3, 6, b), b);
  EXPECT_EQ(store.size(), 2u);
  std::size_t arrays = 0;
  store.for_each_array([&](const auto&) { ++arrays; });
  EXPECT_EQ(arrays, 5u) << "the group table and one array per group id";
  store.release(3, 5);
  ASSERT_NE(store.find(3, 5), nullptr);
  EXPECT_EQ(*store.find(3, 5), a);
  store.release(3, 5);
  EXPECT_EQ(store.find(3, 5), nullptr);
  store.release(3, 5);  // absent: no-op
  store.release(9, 0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(*store.find(3, 6), b);
}

// Two decoders of one group over one store: the second resolves the shard
// to the buffer the first holds, and a parity displaced from one decoder
// stays stored while the other still holds it.
TEST(ShardStore, DecodersShareAndDisplacedParityIsReleased) {
  auto codec = std::make_shared<ReedSolomon>(2, 2);
  const auto data = share(random_shards(2, 16, 71));
  GroupEncoder enc(codec, data);
  const ShardBuffer p2 = enc.shard_shared(2);
  const ShardBuffer p2_copy =
      std::make_shared<const std::vector<std::uint8_t>>(*p2);
  ShardStore shards;
  DecoderState sa, sb;
  std::vector<std::uint8_t> ia(GroupDecoder::block_bytes(*codec));
  std::vector<std::uint8_t> ib(ia.size());
  GroupDecoder a(*codec, sa, ia.data(), shards, 0);
  GroupDecoder b(*codec, sb, ib.data(), shards, 0);
  a.add(2, p2);
  b.add(2, p2_copy);
  EXPECT_EQ(b.held(2), p2) << "the lane keeps the first buffer";
  a.add(0, data[0]);
  a.add(1, data[1]);  // displaces parity 2 from a
  EXPECT_EQ(a.held(2), nullptr);
  EXPECT_EQ(b.held(2), p2) << "still held by b";
  b.add(1, data[1]);
  b.add(0, data[0]);  // displaces parity 2 from b: no holder is left
  EXPECT_EQ(shards.find(0, 2), nullptr);
  EXPECT_EQ(shards.size(), 2u);
  EXPECT_EQ(a.reconstruct(), b.reconstruct());
}

// A repairer's encoder is built from the shards its decoder holds: it
// rebuilds no missing original (building it allocates no shard buffer),
// its held shards are handed out as the very buffers it received, and its
// parity matches the source's over the original data.
TEST(GroupCodec, RepairerEncoderSharesReceivedOriginals) {
  const int k = 6;
  const int size = 1024;
  auto codec = std::make_shared<ReedSolomon>(k, 8);
  const auto raw = random_shards(k, size, 53);
  GroupEncoder source(codec, share(raw));
  DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
  for (int i : {0, 2, 5, 6, 9, 11}) dec.add(i, source.shard_shared(i));
  ASSERT_TRUE(dec.complete());

  GroupEncoder repairer(codec, dec.held_shards());
  const std::size_t one_buffer = buffer_bytes(source.shard_shared(0));
  EXPECT_LT(repairer.memory_bytes(), one_buffer)
      << "building the repairer allocated a shard buffer";
  for (int i = 0; i < k; ++i) {
    if (dec.has(i)) {
      EXPECT_EQ(repairer.shard_shared(i), dec.held(i));
    }
  }
  EXPECT_LT(repairer.memory_bytes(), one_buffer)
      << "handing out a held original allocated a buffer";

  std::vector<const std::uint8_t*> ptrs;
  for (const auto& d : raw) ptrs.push_back(d.data());
  int encoded = 0;
  for (int index = k; index < repairer.max_shards(); ++index) {
    std::vector<std::uint8_t> want(size);
    codec->encode_parity_into(index, ptrs.data(), want.size(), want.data());
    const auto got = repairer.shard_shared(index);
    EXPECT_EQ(*got, want) << "parity " << index;
    if (dec.has(index)) {
      EXPECT_EQ(got, dec.held(index)) << "parity " << index;
    } else {
      ++encoded;
    }
  }
  // Exactly one new buffer per parity index it did not hold.
  EXPECT_GE(repairer.memory_bytes(), encoded * one_buffer);
  EXPECT_LT(repairer.memory_bytes(), (encoded + 1) * one_buffer);
}

// After any add order the decoder holds at most k handles, the held set is
// exactly what ReedSolomon::decode picks from everything received (every
// original, then the earliest parity), and has()/distinct() still see
// every index, duplicates and out-of-range indices included.
TEST(GroupCodec, DecoderHoldsExactlyDecodesPick) {
  std::mt19937 rng(61);
  for (int trial = 0; trial < 400; ++trial) {
    const int k = std::uniform_int_distribution<int>(1, 16)(rng);
    const int parity = std::uniform_int_distribution<int>(0, 16)(rng);
    const int n = k + parity;
    auto codec = std::make_shared<ReedSolomon>(k, parity);
    DecoderStore store(*codec);
  GroupDecoder& dec = store.dec;
    std::set<int> seen;
    std::vector<int> arrivals;  // distinct, in arrival order
    const int adds = std::uniform_int_distribution<int>(0, 2 * n + 2)(rng);
    for (int a = 0; a < adds; ++a) {
      const int index = std::uniform_int_distribution<int>(-1, n)(rng);
      const bool fresh = index >= 0 && index < n && !seen.count(index);
      EXPECT_EQ(dec.add(index, nullptr), fresh) << "index " << index;
      if (fresh) {
        seen.insert(index);
        arrivals.push_back(index);
      }
      ASSERT_LE(dec.held_count(), k);
      ASSERT_EQ(static_cast<int>(dec.held_shards().size()), dec.held_count());
      ASSERT_EQ(dec.distinct(), static_cast<int>(seen.size()));
      for (int i = -1; i <= n; ++i) {
        ASSERT_EQ(dec.has(i), seen.count(i) == 1) << "index " << i;
      }
      // decode's pick: originals in arrival order, then parity, up to k.
      std::set<int> pick;
      for (bool originals : {true, false}) {
        for (int i : arrivals) {
          if ((i < k) == originals && static_cast<int>(pick.size()) < k) {
            pick.insert(i);
          }
        }
      }
      std::set<int> held;
      for (const IndexedShard& s : dec.held_shards()) held.insert(s.index);
      ASSERT_EQ(held, pick) << "trial " << trial << " add " << a;
      ASSERT_EQ(held.size(), dec.held_shards().size()) << "held twice";
    }
    // Never a write past the held slots in use: the rest stay empty. A
    // size-only decoder (null bytes) stores nothing.
    for (int i = dec.held_count(); i < k; ++i) {
      EXPECT_EQ(store.index[i], 0) << "slot " << i;
    }
    EXPECT_EQ(store.shards.size(), 0u);
  }
}

// An encoder built from any k distinct shards (originals, parity or a mix)
// hands out every shard of the group byte-equal to the source encoder's.
TEST(GroupCodec, EncoderFromAnyBasisMatchesSource) {
  std::mt19937 rng(67);
  for (int k : {1, 4, 16}) {
    const int parity = 16;
    auto codec = std::make_shared<ReedSolomon>(k, parity);
    const auto raw = random_shards(k, 96, 71 + k);
    GroupEncoder source(codec, share(raw));
    std::vector<int> all(k + parity);
    std::iota(all.begin(), all.end(), 0);
    for (int trial = 0; trial < 12; ++trial) {
      std::shuffle(all.begin(), all.end(), rng);
      std::vector<IndexedShard> basis;
      for (int j = 0; j < k; ++j) {
        basis.push_back(IndexedShard{all[j], source.shard_shared(all[j])});
      }
      GroupEncoder enc(codec, basis);
      for (int index = 0; index < k + parity; ++index) {
        EXPECT_EQ(*enc.shard_shared(index), *source.shard_shared(index))
            << "k " << k << " trial " << trial << " index " << index;
      }
    }
  }
}

TEST(GroupCodec, EncoderRejectsRepeatedBasisIndex) {
  auto codec = std::make_shared<ReedSolomon>(2, 2);
  const auto data = share(random_shards(2, 8, 73));
  EXPECT_THROW(GroupEncoder(codec, std::vector<IndexedShard>{{1, data[1]},
                                                             {1, data[1]}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sharq::fec
