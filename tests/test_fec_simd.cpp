// SIMD GF(256) kernel validation: every vector kernel the host supports is
// cross-checked bit-for-bit against the scalar table reference over all 256
// multipliers, odd/unaligned lengths, and batched row application; plus an
// exhaustive Reed-Solomon loss-pattern property test. Run once normally and
// once with SHARQFEC_FORCE_KERNEL=scalar (the `fec_simd_force_scalar` ctest
// entry) to cover both dispatch decisions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "fec/cpu_features.hpp"
#include "fec/gf256.hpp"
#include "fec/gf256_simd.hpp"
#include "fec/group_codec.hpp"
#include "fec/reed_solomon.hpp"

namespace {

using sharq::fec::GF256;
using sharq::fec::GroupDecoder;
using sharq::fec::GroupEncoder;
using sharq::fec::ReedSolomon;
using sharq::fec::cpu::Kernel;
namespace cpu = sharq::fec::cpu;
namespace simd = sharq::fec::simd;

std::vector<std::uint8_t> random_bytes(std::mt19937& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = rng() & 0xff;
  return out;
}

// Lengths chosen to straddle every vector width: empty, sub-vector, exact
// 16/32/64-byte multiples, one over/under, and large-with-odd-tail.
const std::size_t kSizes[] = {0,  1,  3,  15,  16,  17,   31,   32,  33,
                              63, 64, 65, 100, 255, 1000, 1024, 4109};

TEST(CpuFeatures, SupportedKernelsStartWithScalar) {
  const auto kernels = cpu::supported_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), Kernel::kScalar);
  bool active_supported = false;
  for (Kernel k : kernels) {
    EXPECT_STRNE(cpu::kernel_name(k), "unknown");
    active_supported = active_supported || k == cpu::active_kernel();
  }
  EXPECT_TRUE(active_supported);
}

TEST(CpuFeatures, ForceKernelEnvPinsDispatch) {
  // The same binary runs twice in ctest: once plain, once with
  // SHARQFEC_FORCE_KERNEL=scalar. A supported kernel's name selects that
  // kernel; no name, or any other, selects the strongest supported one.
  const auto supported = cpu::supported_kernels();
  Kernel want = supported.back();
  if (const char* force = std::getenv("SHARQFEC_FORCE_KERNEL")) {
    for (Kernel k : supported) {
      if (std::strcmp(force, cpu::kernel_name(k)) == 0) want = k;
    }
  }
  EXPECT_EQ(cpu::active_kernel(), want);
}

// GF256::mul_add's kernel: one row of mul_add_rows.
void mul_add_one_row(Kernel k, std::uint8_t* dst, const std::uint8_t* src,
                     std::uint8_t c, std::size_t n) {
  simd::mul_add_rows(k, dst, &src, &c, 1, n);
}

TEST(SimdKernels, MulAddMatchesScalarForAllMultipliers) {
  std::mt19937 rng(42);
  const auto src = random_bytes(rng, 1024 + 13);
  const auto dst0 = random_bytes(rng, 1024 + 13);
  for (Kernel k : cpu::supported_kernels()) {
    for (int c = 0; c < 256; ++c) {
      auto want = dst0;
      GF256::mul_add_scalar(want.data(), src.data(),
                            static_cast<std::uint8_t>(c), want.size());
      auto got = dst0;
      mul_add_one_row(k, got.data(), src.data(), static_cast<std::uint8_t>(c),
                      got.size());
      ASSERT_EQ(want, got) << "kernel=" << cpu::kernel_name(k) << " c=" << c;
    }
  }
}

TEST(SimdKernels, MulAddMatchesScalarForAllSizesAndOffsets) {
  std::mt19937 rng(7);
  const std::uint8_t cs[] = {0, 1, 2, 0x53, 0x8e, 0xff};
  // Over-allocate so we can probe deliberately misaligned base pointers.
  const auto src_buf = random_bytes(rng, 4109 + 8);
  const auto dst_buf = random_bytes(rng, 4109 + 8);
  for (Kernel k : cpu::supported_kernels()) {
    for (std::size_t n : kSizes) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{7}}) {
        for (std::uint8_t c : cs) {
          std::vector<std::uint8_t> want(dst_buf.begin() + off,
                                         dst_buf.begin() + off + n);
          std::vector<std::uint8_t> got = want;
          GF256::mul_add_scalar(want.data(), src_buf.data() + off, c, n);
          // Feed the kernel the unaligned source pointer directly.
          mul_add_one_row(k, got.data(), src_buf.data() + off, c, n);
          ASSERT_EQ(want, got)
              << "kernel=" << cpu::kernel_name(k) << " n=" << n
              << " off=" << off << " c=" << int(c);
        }
      }
    }
  }
}

TEST(SimdKernels, MulAddRowsMatchesSequentialScalar) {
  // Every length up to 150 crosses each kernel's step-down (64, 32 and 16
  // bytes, then the scalar tail) at every remainder; 1000 is a shard.
  std::vector<std::size_t> sizes(151);
  for (std::size_t n = 0; n < sizes.size(); ++n) sizes[n] = n;
  sizes.push_back(1000);
  std::mt19937 rng(1337);
  for (Kernel k : cpu::supported_kernels()) {
    for (int rows : {1, 2, 3, 8, 16, 31}) {
      for (std::size_t n : sizes) {
        std::vector<std::vector<std::uint8_t>> srcs;
        std::vector<const std::uint8_t*> ptrs;
        std::vector<std::uint8_t> coeffs;
        for (int r = 0; r < rows; ++r) {
          srcs.push_back(random_bytes(rng, n));
          ptrs.push_back(srcs.back().data());
          // Exercise the c==0 row-skip and c==1 identity paths too; row 0
          // is random so one-row calls multiply.
          coeffs.push_back(r == 1 ? 0 : (r == 2 ? 1 : rng() & 0xff));
        }
        const auto dst0 = random_bytes(rng, n);
        auto want = dst0;
        for (int r = 0; r < rows; ++r) {
          GF256::mul_add_scalar(want.data(), ptrs[r], coeffs[r], n);
        }
        auto got = dst0;
        simd::mul_add_rows(k, got.data(), ptrs.data(), coeffs.data(), rows, n);
        ASSERT_EQ(want, got) << "kernel=" << cpu::kernel_name(k)
                             << " rows=" << rows << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, EncodeBitIdenticalAcrossKernels) {
  // Parity generated through any kernel must be byte-identical: receivers
  // on different hardware (or with SHARQFEC_FORCE_KERNEL set) must agree
  // on every shard.
  std::mt19937 rng(2024);
  const int k = 16, parity = 8;
  const std::size_t size = 1000;
  ReedSolomon rs(k, parity);
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<const std::uint8_t*> ptrs;
  for (int i = 0; i < k; ++i) {
    data.push_back(random_bytes(rng, size));
    ptrs.push_back(data.back().data());
  }
  for (int index = k; index < k + parity; ++index) {
    const auto reference = rs.encode_parity(index, data);
    for (Kernel kn : cpu::supported_kernels()) {
      std::vector<std::uint8_t> out(size, 0);
      simd::mul_add_rows(kn, out.data(), ptrs.data(),
                         rs.generator().row(index), k, size);
      ASSERT_EQ(reference, out)
          << "kernel=" << cpu::kernel_name(kn) << " shard=" << index;
    }
  }
}

TEST(SimdKernels, ShardSharedMatchesShard) {
  std::mt19937 rng(5);
  const int k = 8, parity = 4;
  auto codec = std::make_shared<ReedSolomon>(k, parity);
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < k; ++i) data.push_back(random_bytes(rng, 257));
  std::vector<sharq::fec::ShardBuffer> handles;
  for (const auto& d : data) {
    handles.push_back(std::make_shared<const std::vector<std::uint8_t>>(d));
  }
  GroupEncoder enc(codec, handles);
  std::vector<const std::uint8_t*> ptrs;
  for (const auto& d : data) ptrs.push_back(d.data());
  for (int index = 0; index < enc.max_shards(); ++index) {
    const auto shared = enc.shard_shared(index);
    ASSERT_NE(shared, nullptr);
    std::vector<std::uint8_t> want;
    if (index < k) {
      want = data[index];
    } else {
      want.resize(data.front().size());
      codec->encode_parity_into(index, ptrs.data(), want.size(), want.data());
    }
    EXPECT_EQ(*shared, want) << "shard=" << index;
  }
}

// Exhaustive erasure property: for every k <= 8, r <= 4, and every subset
// of the n = k + r shards, decode succeeds and reproduces the data iff at
// least k shards survive. Runs under whichever kernel the dispatcher
// selected (the force-scalar ctest entry covers the other path).
TEST(ReedSolomonProperty, AllLossPatternsAllSmallCodes) {
  std::mt19937 rng(31337);
  const std::size_t size = 65;  // odd: exercises vector tails in decode
  for (int k = 1; k <= 8; ++k) {
    for (int r = 0; r <= 4; ++r) {
      const int n = k + r;
      ReedSolomon rs(k, r);
      std::vector<std::vector<std::uint8_t>> data;
      for (int i = 0; i < k; ++i) data.push_back(random_bytes(rng, size));
      std::vector<std::vector<std::uint8_t>> all(n);
      for (int i = 0; i < k; ++i) all[i] = data[i];
      for (int i = k; i < n; ++i) all[i] = rs.encode_parity(i, data);

      for (unsigned mask = 0; mask < (1u << n); ++mask) {
        std::vector<ReedSolomon::Shard> survivors;
        for (int i = 0; i < n; ++i) {
          if (mask & (1u << i)) survivors.push_back({i, all[i]});
        }
        const auto decoded = rs.decode(survivors);
        if (static_cast<int>(survivors.size()) >= k) {
          ASSERT_TRUE(decoded.has_value())
              << "k=" << k << " r=" << r << " mask=" << mask;
          ASSERT_EQ(*decoded, data)
              << "k=" << k << " r=" << r << " mask=" << mask;
        } else {
          ASSERT_FALSE(decoded.has_value())
              << "k=" << k << " r=" << r << " mask=" << mask;
        }
      }
    }
  }
}

}  // namespace
