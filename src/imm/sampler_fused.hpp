/// \file sampler_fused.hpp
/// \brief Fused IC kernel: up to 64 RRR draws per traversal batch
/// (DESIGN.md §10).
///
/// The kernel shares the indexing discipline of sampler.hpp — RRR set i is
/// drawn from the Philox stream (seed, i) with the identical draw order —
/// so it emits the bytes RRRGenerator::generate_random_root does.  What
/// changes is the execution shape: 64 samples ("lanes") advance
/// level-synchronously through one traversal pass, the visited state is
/// one 64-bit lane mask per vertex (support/bitvector.hpp's
/// LaneMaskVector, after Göktürk & Kaya arXiv 2008.03095), each lane's
/// Philox counter blocks are generated out of order in bulk
/// (rng/philox_buffered.hpp), the per-edge Bernoulli test is a precomputed
/// integer compare, and the sorted output lists are *emitted* from the lane
/// masks in vertex order instead of sorted per set.
#ifndef RIPPLES_IMM_SAMPLER_FUSED_HPP
#define RIPPLES_IMM_SAMPLER_FUSED_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "imm/rrr_collection.hpp"
#include "rng/philox_buffered.hpp"
#include "support/bitvector.hpp"

namespace ripples {

/// Reusable fused IC GenerateRR kernel: one instance per thread, holding
/// the lane-mask visited array, per-lane frontier scratch, and 64 buffered
/// Philox engines so repeated batches allocate nothing.  IC only: an LT
/// reverse walk is a path with one draw per step, so there is no frontier
/// to share and the scalar RRRGenerator walk is faster (sampler.cpp picks
/// the engine by model, and on IC builds the lanes only once a thread's
/// walks pay for them).
class FusedSampler {
public:
  static constexpr unsigned kLanes = 64;

  explicit FusedSampler(const CsrGraph &graph);

  /// Generates the IC RRR sets for global sample indices \p sample_indices
  /// (at most kLanes of them), writing lane l into outs[l].  Each lane
  /// draws from sample_stream(seed, sample_indices[l]) with the scalar
  /// engine's exact draw order, so the output is byte-identical to calling
  /// RRRGenerator::generate_random_root per index.
  void generate(std::uint64_t seed,
                std::span<const std::uint64_t> sample_indices, RRRSet *outs);

  /// Accumulated instrumentation over this instance's lifetime: distinct
  /// visited-mask words touched, and frontier passes executed.  Flushed to
  /// the sampler.fused.{words,passes} registry counters by the sampling
  /// entry points of sampler.hpp.
  [[nodiscard]] std::uint64_t words_touched() const { return words_; }
  [[nodiscard]] std::uint64_t passes() const { return passes_; }

  /// Heap bytes one instance's lane structures hold for \p graph (the
  /// visited lane masks, touched list, and packed edge/threshold streams —
  /// the frontier buffers grow on demand and are excluded).  The budget
  /// governor pre-reserves this per sampling thread before a governed IC
  /// window (consumer "sampler.fused_lanes") and falls back to the scalar
  /// engine — byte-identical output — when refused (DESIGN.md §12).
  [[nodiscard]] static std::size_t lane_bytes(const CsrGraph &graph);

private:
  /// Growable uninitialized append buffer for the per-lane BFS frontiers.
  /// std::vector::resize would value-initialize the headroom the branchless
  /// appends need — one wasted store per scanned edge — so this keeps raw
  /// storage and a separate length.
  struct FrontierBuffer {
    std::unique_ptr<vertex_t[]> data;
    std::size_t len = 0;
    std::size_t cap = 0;

    void ensure(std::size_t need) {
      if (need <= cap) return;
      std::size_t fresh_cap = std::max<std::size_t>(need, cap ? cap * 2 : 64);
      auto fresh = std::make_unique_for_overwrite<vertex_t[]>(fresh_cap);
      std::copy_n(data.get(), len, fresh.get());
      data = std::move(fresh);
      cap = fresh_cap;
    }
  };

  void run_ic(unsigned lanes, RRRSet *outs);
  /// Rebuilds outs[0..lanes) sorted from the visited lane masks: one
  /// vertex-ordered scan replaces 64 per-set sorts (counts[l] = final size
  /// of lane l's set, accumulated during the traversal).
  void emit_sorted(unsigned lanes, const std::size_t *counts, RRRSet *outs);

  const CsrGraph &graph_;
  LaneMaskVector visited_;
  /// Distinct vertices whose lane-mask word is nonzero, maintained
  /// branchlessly: sized num_vertices + 1 up front so the hot loop can
  /// append with a masked increment (the append stores first and masks the
  /// length increment after, so the store slot must stay valid even once
  /// every vertex is already touched).
  std::vector<vertex_t> touched_;
  std::size_t touched_len_ = 0;
  /// thresholds_[e] = ceil(weight(e) * 2^53) for flat in-edge index e:
  /// uniform_unit(x) < weight  ⟺  (x >> 11) < thresholds_[e], exactly —
  /// weight is a float (24-bit significand), so weight * 2^53 is an exact
  /// double and the ceiling is the exact integer compare bound.  Turns the
  /// per-edge Bernoulli test into one integer compare, no FP.
  std::vector<std::uint64_t> thresholds_;
  /// Hot-loop edge stream, one word per in-edge:
  /// (thresholds_[e] >> 22) << 32 | target-vertex.  A single 8-byte load
  /// yields the target and the top 32 bits of the 54-bit threshold, so the
  /// kernel streams the same bytes per edge as the scalar engine's
  /// Adjacency walk; the (x >> 33) vs threshold-high compare decides every
  /// draw except the ~2^-31 ties, which fall back to thresholds_.
  std::vector<std::uint64_t> packed_edges_;
  std::array<BufferedPhilox, kLanes> rng_;
  std::array<FrontierBuffer, kLanes> frontier_;
  std::array<FrontierBuffer, kLanes> next_;
  std::uint64_t words_ = 0;
  std::uint64_t passes_ = 0;
};

} // namespace ripples

#endif // RIPPLES_IMM_SAMPLER_FUSED_HPP
