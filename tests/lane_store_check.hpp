#pragma once

// Shared check for the real-payload tests: what each execution lane's shard
// store holds, against what the lane's engines refer to and against the
// bytes the source's encoder would produce.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "fec/group_codec.hpp"
#include "sharqfec/protocol.hpp"

namespace sharq::testing {

/// Checks, for every lane of a session (retired agents included):
///  - every index each decoder holds, and every basis or encoded shard of
///    each live encoder, resolves to the lane store's one buffer for its
///    (group, index), pointer-equal where the encoder shares a buffer;
///  - that buffer's bytes equal the source encoder's shard over the
///    payload;
///  - the store holds exactly those keys plus the source's originals, so
///    no entry outlives its holders.
class LaneStoreCheck {
 public:
  LaneStoreCheck(std::uint32_t groups, const std::vector<std::uint8_t>& payload,
                 const sfq::Config& cfg)
      : groups_(groups), k_(cfg.group_size) {
    const auto codec = std::make_shared<const fec::ReedSolomon>(
        cfg.group_size, cfg.max_parity);
    const auto shard = static_cast<std::size_t>(cfg.shard_size_bytes);
    for (std::uint32_t g = 0; g < groups; ++g) {
      std::vector<fec::ShardBuffer> data;
      for (int d = 0; d < cfg.group_size; ++d) {
        const auto at = payload.begin() +
                        static_cast<std::ptrdiff_t>(
                            (static_cast<std::size_t>(g) * k_ + d) * shard);
        data.push_back(
            std::make_shared<const std::vector<std::uint8_t>>(at, at + shard));
      }
      source_.push_back(std::make_unique<fec::GroupEncoder>(codec, data));
    }
  }

  /// Runs the checks on `s`; returns the number of (lane, group, index)
  /// keys checked.
  std::size_t operator()(const sfq::Session& s) {
    stores_ = &s.stores();
    keys_.clear();
    for (const auto& a : s.agents()) engine(a->transfer(), a->is_source());
    for (const auto& a : s.retired()) engine(a->transfer(), false);
    std::vector<std::size_t> per_lane(stores_->size(), 0);
    for (const auto& key : keys_) ++per_lane[std::get<0>(key)];
    for (std::size_t l = 0; l < stores_->size(); ++l) {
      EXPECT_EQ((*stores_)[l].size(), per_lane[l])
          << "lane " << l << " stores a shard no holder refers to";
    }
    return keys_.size();
  }

 private:
  void check(std::size_t lane, std::uint32_t g, const fec::IndexedShard& ref) {
    const fec::ShardBuffer* stored = (*stores_)[lane].find(g, ref.index);
    ASSERT_NE(stored, nullptr)
        << "lane " << lane << " group " << g << " index " << ref.index;
    EXPECT_EQ(*stored, ref.bytes) << "lane " << lane << " group " << g
                                  << " index " << ref.index
                                  << ": a second buffer for one key";
    if (keys_.insert({lane, g, ref.index}).second) {
      EXPECT_EQ(**stored, *source_[g]->shard_shared(ref.index))
          << "lane " << lane << " group " << g << " index " << ref.index;
    }
  }

  void engine(const sfq::TransferEngine& e, bool is_source) {
    std::size_t lane = 0;
    while (lane < stores_->size() && &(*stores_)[lane] != &e.store()) ++lane;
    ASSERT_LT(lane, stores_->size()) << "engine uses no store of its session";
    for (std::uint32_t g = 0; g < groups_; ++g) {
      for (int d = 0; is_source && d < k_; ++d) {
        const fec::ShardBuffer* original = (*stores_)[lane].find(g, d);
        ASSERT_NE(original, nullptr) << "source original " << g << "/" << d;
        check(lane, g, {d, *original});
      }
      const auto dec = e.decoder(g);
      if (!dec) continue;
      for (const fec::IndexedShard& h : dec->held_shards()) check(lane, g, h);
      if (const fec::GroupEncoder* enc = e.encoder(g)) {
        for (const fec::IndexedShard& b : enc->basis()) check(lane, g, b);
        for (const fec::IndexedShard& p : enc->encoded()) check(lane, g, p);
      }
    }
  }

  std::uint32_t groups_;
  int k_;
  std::vector<std::unique_ptr<fec::GroupEncoder>> source_;
  const std::vector<fec::ShardStore>* stores_ = nullptr;
  std::set<std::tuple<std::size_t, std::uint32_t, int>> keys_;
};

}  // namespace sharq::testing
