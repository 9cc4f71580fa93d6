#include "centrality/betweenness.hpp"

#include <algorithm>
#include <cmath>
#include <omp.h>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/assert.hpp"
#include "support/tsan.hpp"

namespace ripples {

namespace {

/// Scratch space for one Brandes source accumulation; reused across sources.
struct BrandesScratch {
  explicit BrandesScratch(vertex_t n)
      : distance(n, -1), num_paths(n, 0), dependency(n, 0.0) {
    order.reserve(n);
  }

  std::vector<std::int32_t> distance;
  std::vector<double> num_paths;
  std::vector<double> dependency;
  std::vector<vertex_t> order; ///< BFS visit order (for reverse sweep)

  void reset_touched() {
    for (vertex_t v : order) {
      distance[v] = -1;
      num_paths[v] = 0;
      dependency[v] = 0.0;
    }
    order.clear();
  }
};

/// Accumulates the dependency contributions of one source into `scores`.
void accumulate_source(const CsrGraph &graph, vertex_t source,
                       BrandesScratch &scratch, std::vector<double> &scores) {
  scratch.reset_touched();
  scratch.distance[source] = 0;
  scratch.num_paths[source] = 1.0;
  scratch.order.push_back(source);

  // Forward BFS counting shortest paths.  `order` doubles as the queue.
  for (std::size_t head = 0; head < scratch.order.size(); ++head) {
    vertex_t v = scratch.order[head];
    for (const Adjacency &out : graph.out_neighbors(v)) {
      vertex_t w = out.vertex;
      if (scratch.distance[w] < 0) {
        scratch.distance[w] = scratch.distance[v] + 1;
        scratch.order.push_back(w);
      }
      if (scratch.distance[w] == scratch.distance[v] + 1)
        scratch.num_paths[w] += scratch.num_paths[v];
    }
  }

  // Reverse sweep accumulating dependencies (Brandes' theorem).
  for (auto it = scratch.order.rbegin(); it != scratch.order.rend(); ++it) {
    vertex_t v = *it;
    for (const Adjacency &out : graph.out_neighbors(v)) {
      vertex_t w = out.vertex;
      if (scratch.distance[w] == scratch.distance[v] + 1)
        scratch.dependency[v] += scratch.num_paths[v] / scratch.num_paths[w] *
                                 (1.0 + scratch.dependency[w]);
    }
    if (v != source) scores[v] += scratch.dependency[v];
  }
}

/// Sources per accumulation block.  A block's partial scores are summed in
/// double with its sources in order, so they do not depend on which thread
/// ran the block.
constexpr std::size_t kSourceBlock = 8;

/// Block partials are added as fixed point with this many fraction bits in
/// 128-bit integers.  Integer addition is associative, so the totals — and
/// the scores — are the same at every thread count and schedule.  A score
/// is at most n^2 < 2^64, so the totals fit.
constexpr int kFractionBits = 62;

std::vector<double> brandes_over_sources(const CsrGraph &graph,
                                         std::span<const vertex_t> sources,
                                         double rescale) {
  const vertex_t n = graph.num_vertices();
  std::vector<__int128> totals(n, 0);
  const auto num_blocks = static_cast<std::int64_t>(
      (sources.size() + kSourceBlock - 1) / kSourceBlock);
  tsan_release(totals.data());
#pragma omp parallel
  {
    tsan_acquire(totals.data());
    BrandesScratch scratch(n);
    std::vector<double> block(n);
    std::vector<__int128> local(n, 0);
#pragma omp for schedule(dynamic, 1)
    for (std::int64_t b = 0; b < num_blocks; ++b) {
      std::fill(block.begin(), block.end(), 0.0);
      const std::size_t begin = static_cast<std::size_t>(b) * kSourceBlock;
      const std::size_t end = std::min(begin + kSourceBlock, sources.size());
      for (std::size_t i = begin; i < end; ++i)
        accumulate_source(graph, sources[i], scratch, block);
      for (vertex_t v = 0; v < n; ++v)
        if (block[v] != 0.0)
          local[v] += static_cast<__int128>(std::ldexp(block[v], kFractionBits));
    }
#pragma omp critical(ripples_betweenness_merge)
    {
      tsan_acquire(totals.data());
      for (vertex_t v = 0; v < n; ++v) totals[v] += local[v];
      tsan_release(totals.data());
    }
  }
  tsan_acquire(totals.data());
  std::vector<double> scores(n);
  for (vertex_t v = 0; v < n; ++v)
    scores[v] =
        std::ldexp(static_cast<double>(totals[v]), -kFractionBits) * rescale;
  return scores;
}

} // namespace

std::vector<double> betweenness_centrality(const CsrGraph &graph) {
  std::vector<vertex_t> sources(graph.num_vertices());
  for (vertex_t v = 0; v < graph.num_vertices(); ++v) sources[v] = v;
  return brandes_over_sources(graph, sources, 1.0);
}

std::vector<double> betweenness_centrality_sampled(const CsrGraph &graph,
                                                   vertex_t num_sources,
                                                   std::uint64_t seed) {
  RIPPLES_ASSERT(num_sources >= 1);
  num_sources = std::min(num_sources, graph.num_vertices());
  Xoshiro256 rng(seed);
  std::vector<vertex_t> sources(num_sources);
  for (vertex_t &s : sources)
    s = static_cast<vertex_t>(uniform_index(rng, graph.num_vertices()));
  double rescale = static_cast<double>(graph.num_vertices()) /
                   static_cast<double>(num_sources);
  return brandes_over_sources(graph, sources, rescale);
}

} // namespace ripples
