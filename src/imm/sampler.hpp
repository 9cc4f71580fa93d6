/// \file sampler.hpp
/// \brief Sample (Alg. 3): batch generation of RRR sets.
///
/// All engines share one indexing discipline: RRR set i of an experiment is
/// drawn from the Philox stream (seed, i) and its root is the stream's first
/// draw.  The collection R is therefore a pure function of (graph, model,
/// seed, |R|) — identical whether it was produced sequentially, by any
/// number of OpenMP threads, or by any number of mpsim ranks.  This is the
/// property the paper obtains from leap-frog LCG splitting ("accurate
/// generation of pseudorandom numbers in parallel is critical"), delivered
/// here with a counter-based generator; the faithful leap-frog LCG variant
/// lives in imm_distributed.cpp and is compared in ablation_rng_streams.
///
/// Every counter-mode entry point (sample_sequential, sample_multithreaded,
/// sample_counter_indices, sample_counter_governed and
/// detail::sample_counter_chunked) runs one block kernel over blocks of up
/// to 64 sample indices.  The model picks the engine (DESIGN.md §10): IC
/// runs the fused lane-mask BFS of sampler_fused.hpp once a thread's walks
/// have paid for building its lanes, LT the scalar RRRGenerator walk.  Both
/// emit RRRGenerator::generate_random_root's bytes, so the choice never
/// changes a result.
#ifndef RIPPLES_IMM_SAMPLER_HPP
#define RIPPLES_IMM_SAMPLER_HPP

#include <cstdint>
#include <limits>
#include <span>

#include "imm/rrr_collection.hpp"
#include "rng/lcg.hpp"
#include "support/assert.hpp"

namespace ripples {

/// Appends samples to \p collection until it holds \p target_total sets.
/// No-op if it already does.
void sample_sequential(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       RRRCollection &collection);

/// OpenMP variant: slots are pre-grown and filled by a dynamic-schedule
/// parallel for over 64-sample blocks, one block kernel per thread.
/// Bit-identical to sample_sequential for every thread count.
void sample_multithreaded(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t target_total, std::uint64_t seed,
                          unsigned num_threads, RRRCollection &collection);

/// Arena variant: same samples, appended into FlatRRRCollection by the
/// scalar RRRGenerator.
void sample_sequential_flat(const CsrGraph &graph, DiffusionModel model,
                            std::uint64_t target_total, std::uint64_t seed,
                            FlatRRRCollection &collection);

/// Baseline variant: same samples, stored dual-direction (sample list plus
/// per-vertex incidence), reproducing the Table 2 baseline's footprint and
/// insertion cost.
void sample_hypergraph(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       HypergraphCollection &collection);

/// First global sample index >= \p from belonging to leap-frog stream
/// \p stream of \p num_streams (index i belongs to stream i mod num_streams).
/// Requires num_streams > 0 and stream < num_streams; saturates to
/// UINT64_MAX when the first such index would overflow (UINT64_MAX is never
/// a reachable sample index, so range loops over [from, to) simply produce
/// nothing).
[[nodiscard]] inline std::uint64_t
leapfrog_first_index(std::uint64_t from, std::uint64_t stream,
                     std::uint64_t num_streams) {
  RIPPLES_ASSERT(num_streams > 0);
  RIPPLES_ASSERT(stream < num_streams);
  std::uint64_t remainder = from % num_streams;
  std::uint64_t advance = stream >= remainder
                              ? stream - remainder
                              : num_streams - remainder + stream;
  if (advance > std::numeric_limits<std::uint64_t>::max() - from)
    return std::numeric_limits<std::uint64_t>::max();
  return from + advance;
}

/// Generates the RRR sets of leap-frog stream \p stream of \p num_streams
/// whose global indices lie in [from, to), appending them to \p collection,
/// and returns how many were generated.  \p engine must be the stream's
/// generator positioned at the first such index — `Lcg64::leapfrog_stream`
/// for from == 0, or an engine carried forward from the previous batch.
/// Because the engine sequence is a pure function of (seed, stream,
/// num_streams), re-running this from index 0 reproduces a lost partition
/// bit-identically — the distributed driver's healing primitive.
std::uint64_t sample_leapfrog_range(const CsrGraph &graph, DiffusionModel model,
                                    Lcg64 &engine, std::uint64_t stream,
                                    std::uint64_t num_streams,
                                    std::uint64_t from, std::uint64_t to,
                                    RRRCollection &collection);

/// Generates the RRR sets at the given global sample indices from their
/// per-sample counter streams (sample_stream(seed, i)) and appends them to
/// \p collection in the order given; returns indices.size().  Counter
/// streams make every index independently addressable, so any subset of a
/// lost partition can be regenerated by any rank with any thread count.
std::uint64_t sample_counter_indices(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads,
                                     RRRCollection &collection);

/// Budget-governed sample_counter_indices (\p steal_chunk == 0) or
/// detail::sample_counter_chunked (\p steal_chunk > 0): DESIGN.md §12's
/// fused-lane rung.  An IC batch first reserves FusedSampler::lane_bytes
/// per thread under consumer "sampler.fused_lanes" — an upper bound, since
/// a thread builds its lanes only once its walks pay for them — and, when
/// the budget refuses, runs on the scalar RRRGenerator instead: the same
/// bytes out.  LT builds no lane structures and reserves nothing.
std::uint64_t sample_counter_governed(const CsrGraph &graph,
                                      DiffusionModel model, std::uint64_t seed,
                                      std::span<const std::uint64_t> indices,
                                      unsigned num_threads,
                                      std::uint64_t steal_chunk,
                                      RRRCollection &collection);

namespace detail {

/// Intra-rank chunked counter sampler (DESIGN.md §13): splits \p indices
/// into chunks of \p chunk positions dealt round-robin to per-thread
/// queues (steal.hpp's ChunkQueue), then runs the steal loop across
/// \p num_threads OpenMP threads (honouring the steal_schedule
/// perturbation hook).  Every position j writes its set into slot
/// first_slot + j of \p collection, so the result is byte-identical to
/// sample_counter_indices on the same indices regardless of which thread
/// ran which chunk.  chunk == 0 is clamped to 1.  Returns the number of
/// sets generated.
std::uint64_t sample_counter_chunked(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads, std::uint64_t chunk,
                                     RRRCollection &collection);

} // namespace detail

} // namespace ripples

#endif // RIPPLES_IMM_SAMPLER_HPP
