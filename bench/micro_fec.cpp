// Micro-benchmarks for the FEC substrate.
//
// Two layers, both google-benchmark entries that --benchmark_filter
// selects:
//   1. BM_KernelSweep: a self-timed per-kernel sweep (scalar vs every SIMD
//      kernel the host supports) over GF(256) mul_add (one-row
//      mul_add_rows), 16-row mul_add_rows and Reed-Solomon encode, written
//      to BENCH_fec.json (path overridable via SHARQFEC_BENCH_JSON) and
//      summarized on stdout. This is the FEC performance baseline tracked
//      in CHANGES.md.
//   2. The google-benchmark suite for RS parity generation, worst-case
//      decode (all data shards erased), and the group round trip, sweeping
//      group size k (DESIGN.md ablation #2), plus "repairer first parity":
//      the cost of a repairer's first repair shard, rebuilding its missing
//      originals versus encoding from the shards it holds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fec/cpu_features.hpp"
#include "fec/gf256_simd.hpp"
#include "fec/group_codec.hpp"
#include "fec/reed_solomon.hpp"

namespace {

using sharq::fec::cpu::Kernel;

std::vector<std::vector<std::uint8_t>> make_shards(int k, int size) {
  std::mt19937 rng(1234);
  std::vector<std::vector<std::uint8_t>> out(k);
  for (auto& s : out) {
    s.resize(size);
    for (auto& b : s) b = rng() & 0xff;
  }
  return out;
}

// --- self-timed kernel sweep ----------------------------------------------------

/// Wall-clock MB/s of `fn`, where one call processes `bytes` bytes. Runs
/// until at least 50 ms have elapsed so the figure is stable on a busy host.
template <typename Fn>
double throughput_mbps(std::size_t bytes, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Warm up (touches tables, resolves dispatch).
  fn();
  std::size_t iters = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 16; ++i) fn();
    iters += 16;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < 0.05);
  const double total = static_cast<double>(bytes) * iters;
  return total / elapsed / 1e6;
}

struct SweepResult {
  // op -> kernel name -> size -> MB/s
  std::map<std::string, std::map<std::string, std::map<int, double>>> mbps;
};

SweepResult run_sweep(const std::vector<int>& sizes) {
  namespace simd = sharq::fec::simd;
  namespace cpu = sharq::fec::cpu;
  SweepResult res;
  const int kRows = 16;  // paper-default group size for the row kernel
  for (Kernel k : cpu::supported_kernels()) {
    const std::string name = cpu::kernel_name(k);
    for (int size : sizes) {
      std::vector<std::uint8_t> dst(size, 0x55), src(size, 0xAA);
      const std::uint8_t* one_src = src.data();
      const std::uint8_t one_coeff = 0xC3;
      res.mbps["mul_add"][name][size] = throughput_mbps(size, [&] {
        simd::mul_add_rows(k, dst.data(), &one_src, &one_coeff, 1, size);
      });
      auto rows = make_shards(kRows, size);
      std::vector<const std::uint8_t*> ptrs;
      std::vector<std::uint8_t> coeffs;
      for (int r = 0; r < kRows; ++r) {
        ptrs.push_back(rows[r].data());
        coeffs.push_back(static_cast<std::uint8_t>(r + 3));
      }
      // Row kernel throughput counts all source bytes streamed per pass.
      res.mbps["mul_add_rows_k16"][name][size] =
          throughput_mbps(static_cast<std::size_t>(size) * kRows, [&] {
            simd::mul_add_rows(k, dst.data(), ptrs.data(), coeffs.data(),
                               kRows, size);
          });
    }
  }
  return res;
}

/// RS encode throughput (k data bytes consumed per parity shard) under the
/// process-wide dispatched kernel.
double rs_encode_mbps(int k, int size) {
  sharq::fec::ReedSolomon rs(k, k);
  auto data = make_shards(k, size);
  std::vector<const std::uint8_t*> ptrs;
  for (const auto& d : data) ptrs.push_back(d.data());
  std::vector<std::uint8_t> out(size);
  return throughput_mbps(static_cast<std::size_t>(size) * k, [&] {
    rs.encode_parity_into(k, ptrs.data(), size, out.data());
  });
}

void json_escape_free_write(std::FILE* f, const SweepResult& res,
                            double rs_mbps, double speedup_1k) {
  namespace cpu = sharq::fec::cpu;
  const auto& feat = cpu::features();
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"host\": {\"ssse3\": %s, \"avx2\": %s, \"neon\": %s, "
               "\"active_kernel\": \"%s\"},\n",
               feat.ssse3 ? "true" : "false", feat.avx2 ? "true" : "false",
               feat.neon ? "true" : "false",
               cpu::kernel_name(cpu::active_kernel()));
  std::fprintf(f, "  \"units\": \"MB/s\",\n");
  for (const auto& [op, by_kernel] : res.mbps) {
    std::fprintf(f, "  \"%s\": {\n", op.c_str());
    std::size_t ki = 0;
    for (const auto& [kname, by_size] : by_kernel) {
      std::fprintf(f, "    \"%s\": {", kname.c_str());
      std::size_t si = 0;
      for (const auto& [size, mbps] : by_size) {
        std::fprintf(f, "\"%d\": %.1f%s", size, mbps,
                     ++si < by_size.size() ? ", " : "");
      }
      std::fprintf(f, "}%s\n", ++ki < by_kernel.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"rs_encode_parity_k16_1024B\": %.1f,\n", rs_mbps);
  std::fprintf(f, "  \"speedup_mul_add_1KiB_best_vs_scalar\": %.2f\n",
               speedup_1k);
  std::fprintf(f, "}\n");
}

void kernel_sweep_and_report() {
  namespace cpu = sharq::fec::cpu;
  const std::vector<int> sizes{1024, 16384};
  const SweepResult res = run_sweep(sizes);

  const auto& mul_add = res.mbps.at("mul_add");
  const double scalar_1k = mul_add.at("scalar").at(1024);
  double best_1k = scalar_1k;
  std::string best_name = "scalar";
  for (const auto& [kname, by_size] : mul_add) {
    if (by_size.at(1024) > best_1k) {
      best_1k = by_size.at(1024);
      best_name = kname;
    }
  }
  const double speedup = best_1k / scalar_1k;
  const double rs_mbps = rs_encode_mbps(16, 1024);

  std::printf("GF(256) kernel sweep (MB/s):\n");
  for (const auto& [op, by_kernel] : res.mbps) {
    for (const auto& [kname, by_size] : by_kernel) {
      std::printf("  %-18s %-7s", op.c_str(), kname.c_str());
      for (const auto& [size, mbps] : by_size) {
        std::printf("  %6d B: %9.1f", size, mbps);
      }
      std::printf("\n");
    }
  }
  std::printf("rs_encode_parity (k=16, 1024 B shards): %.1f MB/s\n", rs_mbps);
  std::printf("mul_add 1 KiB: best kernel %s = %.2fx scalar\n",
              best_name.c_str(), speedup);
  std::printf("active kernel: %s\n", cpu::kernel_name(cpu::active_kernel()));

  const char* path = std::getenv("SHARQFEC_BENCH_JSON");
  if (path == nullptr) path = "BENCH_fec.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    json_escape_free_write(f, res, rs_mbps, speedup);
    std::fclose(f);
    std::printf("wrote %s\n\n", path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
  }
}

// The sweep times itself, so one iteration runs it once.
void BM_KernelSweep(benchmark::State& state) {
  for (auto _ : state) kernel_sweep_and_report();
}
BENCHMARK(BM_KernelSweep)->Iterations(1)->Unit(benchmark::kSecond);

// --- google-benchmark suite -----------------------------------------------------

void BM_Gf256MulAdd(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::uint8_t> dst(n, 0x55), src(n, 0xAA);
  for (auto _ : state) {
    sharq::fec::GF256::mul_add(dst.data(), src.data(), 0xC3, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Gf256MulAdd)->Arg(1000)->Arg(16000);

void BM_Gf256MulAddScalar(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::uint8_t> dst(n, 0x55), src(n, 0xAA);
  for (auto _ : state) {
    sharq::fec::GF256::mul_add_scalar(dst.data(), src.data(), 0xC3, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Gf256MulAddScalar)->Arg(1000)->Arg(16000);

void BM_RsEncodeParity(benchmark::State& state) {
  const int k = state.range(0);
  sharq::fec::ReedSolomon rs(k, k);
  auto data = make_shards(k, 1000);
  int idx = k;
  for (auto _ : state) {
    auto parity = rs.encode_parity(idx, data);
    benchmark::DoNotOptimize(parity.data());
    idx = k + (idx + 1 - k) % k;
  }
  state.SetBytesProcessed(state.iterations() * 1000 * k);
}
BENCHMARK(BM_RsEncodeParity)->Arg(4)->Arg(16)->Arg(32)->Arg(64);

void BM_RsDecodeAllParity(benchmark::State& state) {
  const int k = state.range(0);
  sharq::fec::ReedSolomon rs(k, k);
  auto data = make_shards(k, 1000);
  std::vector<std::vector<std::uint8_t>> parity;
  std::vector<sharq::fec::ReedSolomon::ShardView> views;
  for (int i = k; i < 2 * k; ++i) parity.push_back(rs.encode_parity(i, data));
  for (int i = 0; i < k; ++i) views.push_back({k + i, parity[i].data()});
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k) * 1000);
  std::vector<std::uint8_t*> dst(k);
  for (int d = 0; d < k; ++d) dst[d] = out.data() + d * 1000;
  for (auto _ : state) {
    const bool ok = rs.decode(views, 1000, dst.data());
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 1000 * k);
}
BENCHMARK(BM_RsDecodeAllParity)->Arg(4)->Arg(16)->Arg(32)->Arg(64);

void BM_GroupRoundTrip(benchmark::State& state) {
  const int k = state.range(0);
  auto codec = std::make_shared<sharq::fec::ReedSolomon>(k, k);
  std::vector<sharq::fec::ShardBuffer> data;
  for (auto& d : make_shards(k, 1000)) {
    data.push_back(
        std::make_shared<const std::vector<std::uint8_t>>(std::move(d)));
  }
  sharq::fec::GroupEncoder enc(codec, std::move(data));
  for (auto _ : state) {
    sharq::fec::DecoderState held;
    std::vector<std::uint8_t> index(
        sharq::fec::GroupDecoder::block_bytes(*codec));
    sharq::fec::ShardStore store;
    sharq::fec::GroupDecoder dec(*codec, held, index.data(), store, 0);
    // Lose a quarter of the data; fill from parity. The decoder shares the
    // encoder's buffers, as every receiver shares the sender's.
    for (int i = k / 4; i < k; ++i) dec.add(i, enc.shard_shared(i));
    for (int i = k; i < k + k / 4; ++i) dec.add(i, enc.shard_shared(i));
    auto out = dec.reconstruct();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GroupRoundTrip)->Arg(8)->Arg(16)->Arg(32);

// Repairer first parity: a complete repairer that lost `missing` of k = 16
// originals (made up from parity) sends its first repair shard.
//   "decode originals": rebuild each missing original into a new buffer,
//       then encode from the k originals (S = I).
//   "held shards": encode from the k shards the decoder holds, through
//       (G_p * S^-1), inverting S once.
void BM_RepairerFirstParity(benchmark::State& state, bool from_held,
                            int missing) {
  constexpr int k = 16;
  constexpr std::size_t kSize = 1000;
  auto codec = std::make_shared<sharq::fec::ReedSolomon>(k, k);
  std::vector<sharq::fec::ShardBuffer> data;
  for (auto& d : make_shards(k, kSize)) {
    data.push_back(
        std::make_shared<const std::vector<std::uint8_t>>(std::move(d)));
  }
  sharq::fec::GroupEncoder source(codec, std::move(data));
  sharq::fec::DecoderState held;
  std::vector<std::uint8_t> index_of(
      sharq::fec::GroupDecoder::block_bytes(*codec));
  sharq::fec::ShardStore store;
  sharq::fec::GroupDecoder dec(*codec, held, index_of.data(), store, 0);
  for (int i = missing; i < k + missing; ++i) {
    dec.add(i, source.shard_shared(i));
  }
  const int index = k + missing;  // a parity shard the repairer lacks
  for (auto _ : state) {
    if (from_held) {
      sharq::fec::GroupEncoder enc(codec, dec.held_shards());
      benchmark::DoNotOptimize(enc.shard_shared(index));
      continue;
    }
    std::vector<sharq::fec::ReedSolomon::ShardView> views;
    for (const auto& s : dec.held_shards()) {
      views.push_back({s.index, s.bytes->data()});
    }
    std::vector<sharq::fec::ShardBuffer> originals(k);
    std::vector<std::uint8_t*> dst(k, nullptr);
    for (int d = 0; d < k; ++d) {
      originals[d] = dec.held(d);
      if (originals[d]) continue;
      auto buf = std::make_shared<std::vector<std::uint8_t>>(kSize);
      dst[d] = buf->data();
      originals[d] = std::move(buf);
    }
    codec->decode(views, kSize, dst.data());
    sharq::fec::GroupEncoder enc(codec, std::move(originals));
    benchmark::DoNotOptimize(enc.shard_shared(index));
  }
  state.SetBytesProcessed(state.iterations() * kSize);
}

void register_repairer_first_parity() {
  for (int missing = 1; missing <= 4; ++missing) {
    for (bool from_held : {false, true}) {
      const std::string name =
          std::string("repairer first parity/") +
          (from_held ? "held shards" : "decode originals") +
          "/k:16/missing:" + std::to_string(missing);
      benchmark::RegisterBenchmark(name.c_str(), BM_RepairerFirstParity,
                                   from_held, missing);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_repairer_first_parity();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
