#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fec/matrix.hpp"

namespace sharq::fec {

/// Systematic Reed-Solomon erasure codec over GF(2^8).
///
/// Encodes k data shards into up to (255 - k) parity shards; any k distinct
/// shards (data or parity) reconstruct the original data. This is the
/// "software FEC" construction of Rizzo (CCR '97) that SHARQFEC assumes:
/// a Vandermonde generator matrix row-reduced so the first k rows are the
/// identity, making the code systematic (data shards are sent verbatim).
///
/// Shard indices: 0..k-1 are data shards, k..n-1 are parity shards. The
/// codec is stateless after construction and safe to share const.
class ReedSolomon {
 public:
  /// Build a codec for k data shards and up to max_parity parity shards.
  /// Preconditions: 1 <= k, 0 <= max_parity, k + max_parity <= 255.
  ReedSolomon(int k, int max_parity);

  int k() const { return k_; }
  int max_parity() const { return max_parity_; }
  int max_shards() const { return k_ + max_parity_; }

  /// Produce parity shard `index` (k <= index < k+max_parity) from the k
  /// data shards. All shards must share the same size.
  std::vector<std::uint8_t> encode_parity(
      int index, const std::vector<std::vector<std::uint8_t>>& data) const;

  /// Batched form: write parity shard `index` into `out` (size bytes,
  /// caller-zeroed allocation not required). `data` holds k pointers to
  /// equal-sized shard buffers. Applies the whole generator row in one
  /// SIMD pass (fec/gf256_simd.hpp) instead of k separate scans — this is
  /// the path every repair and ZCR injection funnels through.
  void encode_parity_into(int index, const std::uint8_t* const* data,
                          std::size_t size, std::uint8_t* out) const;

  /// One shard as received: its global index plus payload bytes.
  struct Shard {
    int index = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// One received shard by reference: its global index and its bytes,
  /// owned by the caller.
  struct ShardView {
    int index = 0;
    const std::uint8_t* bytes = nullptr;
  };

  /// Reconstruct the k data shards from any >= k distinct shards of `size`
  /// bytes each, writing original d to `out[d]` (k pointers). A null
  /// `out[d]` skips original d, so a caller that already holds some
  /// originals decodes only the rest; `out[d] = base + d * size` fills one
  /// contiguous k x size buffer. Returns false when fewer than k distinct
  /// valid shards are supplied. Duplicate indices are ignored.
  bool decode(const std::vector<ShardView>& shards, std::size_t size,
              std::uint8_t* const* out) const;

  /// Owning form of the view decode above: returns the k data shards, or
  /// std::nullopt when fewer than k distinct valid shards are supplied.
  /// Throws std::invalid_argument when in-range shards differ in size.
  std::optional<std::vector<std::vector<std::uint8_t>>> decode(
      const std::vector<Shard>& shards) const;

  /// The generator row used for shard `index` (identity rows for data
  /// shards). Exposed for tests.
  const Matrix& generator() const { return gen_; }

 private:
  int k_;
  int max_parity_;
  Matrix gen_;  // (k+max_parity) x k, top k rows = identity
};

}  // namespace sharq::fec
