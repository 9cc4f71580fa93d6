// Approximation-guarantee oracle: IMM promises a (1 - 1/e - epsilon)-
// approximation of the optimal expected spread with probability at least
// 1 - 1/n^l.  On graphs small enough to enumerate every live-edge world the
// spread sigma(S) of any seed set is computable exactly, and so is OPT (by
// trying every k-set), so the promise can be checked without Monte-Carlo
// noise:
//
//  * IC: each edge is live independently with its probability — 2^m worlds;
//  * LT: each vertex keeps at most one in-edge, edge e with probability w(e)
//    and none with the remaining mass — prod_v (indeg(v) + 1) worlds.
//
// sigma(S) is the probability-weighted count of vertices reachable from S
// over the live edges.  The test runs imm_sequential at epsilon = 0.1,
// l = 1 over 100 seeds and requires at least ceil((1 - 1/n) * 100) runs to
// reach the bound, and checks that imm_multithreaded at 4 threads returns
// the same seeds as the sequential driver on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "graph/csr.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"

namespace ripples {
namespace {

struct TinyGraph {
  const char *name;
  DiffusionModel model;
  vertex_t n;
  std::vector<WeightedEdge> edges;
};

// Hand-made graphs with n <= 8 and m <= 16.  Each has hubs and sinks, so
// the worst k-set (a few sinks) spreads below (1 - 1/e - epsilon) * OPT and
// a selection that ignores the hubs fails the bound.
std::vector<TinyGraph> tiny_graphs() {
  using M = DiffusionModel;
  return {
      {"ic_hub_and_sinks", M::IndependentCascade, 8,
       {{0, 1, 0.8f}, {0, 2, 0.8f}, {0, 3, 0.8f}, {0, 4, 0.8f}, {0, 5, 0.8f},
        {0, 6, 0.5f}, {6, 7, 0.9f}, {1, 0, 0.1f}, {2, 3, 0.2f}}},
      {"ic_two_hubs", M::IndependentCascade, 8,
       {{0, 1, 0.9f}, {0, 2, 0.9f}, {0, 3, 0.9f}, {4, 5, 0.7f}, {4, 6, 0.7f},
        {4, 7, 0.7f}, {0, 4, 0.3f}, {1, 2, 0.1f}, {5, 6, 0.1f}, {7, 3, 0.2f},
        {6, 0, 0.05f}}},
      {"ic_chain", M::IndependentCascade, 8,
       {{0, 1, 0.8f}, {1, 2, 0.8f}, {2, 3, 0.8f}, {3, 4, 0.8f}, {4, 5, 0.8f},
        {5, 6, 0.8f}, {6, 7, 0.8f}, {0, 2, 0.2f}, {2, 4, 0.2f}, {4, 6, 0.2f},
        {3, 1, 0.1f}}},
      {"lt_hub_and_sinks", M::LinearThreshold, 8,
       {{0, 1, 0.9f}, {0, 2, 0.9f}, {0, 3, 0.9f}, {0, 4, 0.9f}, {0, 5, 0.9f},
        {0, 6, 0.9f}, {6, 7, 0.9f}, {1, 0, 0.2f}, {2, 3, 0.1f}}},
      {"lt_two_hubs", M::LinearThreshold, 8,
       {{0, 1, 0.8f}, {0, 2, 0.8f}, {0, 3, 0.8f}, {4, 5, 0.7f}, {4, 6, 0.7f},
        {4, 7, 0.7f}, {0, 4, 0.3f}, {5, 6, 0.2f}, {7, 3, 0.2f}, {1, 2, 0.1f},
        {6, 0, 0.1f}}},
      {"lt_chain", M::LinearThreshold, 8,
       {{0, 1, 0.9f}, {1, 2, 0.8f}, {2, 3, 0.8f}, {3, 4, 0.8f}, {4, 5, 0.8f},
        {5, 6, 0.8f}, {6, 7, 0.8f}, {0, 2, 0.1f}, {2, 4, 0.1f}, {4, 6, 0.1f},
        {3, 1, 0.1f}}},
  };
}

CsrGraph build(const TinyGraph &tiny) {
  EdgeList list;
  list.num_vertices = tiny.n;
  list.edges = tiny.edges;
  CsrGraph graph(list);
  if (tiny.model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

/// Per-vertex bitmasks: bit v of masks[u] is set when u -> v is live.
using Masks = std::vector<std::uint32_t>;

/// Vertices reachable from each single vertex over the live out-edges.
Masks reach_from_each(const Masks &live_out) {
  const auto n = live_out.size();
  Masks reach(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::uint32_t seen = 1u << s;
    std::uint32_t frontier = seen;
    while (frontier != 0) {
      std::uint32_t next = 0;
      for (std::uint32_t f = frontier; f != 0; f &= f - 1)
        next |= live_out[static_cast<std::size_t>(std::countr_zero(f))];
      frontier = next & ~seen;
      seen |= next;
    }
    reach[s] = seen;
  }
  return reach;
}

/// sigma[S] for every seed subset S (bitmask over the n vertices): the
/// expected number of vertices reachable from S, summed exactly over every
/// live-edge world of the graph's diffusion model.
std::vector<double> exact_spread_table(const CsrGraph &graph,
                                       DiffusionModel model) {
  const vertex_t n = graph.num_vertices();
  const std::size_t subsets = std::size_t{1} << n;
  std::vector<double> sigma(subsets, 0.0);
  std::vector<std::uint32_t> covered(subsets, 0);

  auto accumulate = [&](const Masks &live_out, double probability) {
    if (probability == 0.0) return;
    const Masks reach = reach_from_each(live_out);
    for (std::size_t s = 1; s < subsets; ++s) {
      const auto low = static_cast<std::size_t>(std::countr_zero(s));
      covered[s] = covered[s & (s - 1)] | reach[low];
      sigma[s] += probability * std::popcount(covered[s]);
    }
  };

  if (model == DiffusionModel::IndependentCascade) {
    std::vector<std::tuple<vertex_t, vertex_t, double>> edges;
    for (vertex_t u = 0; u < n; ++u)
      for (const Adjacency &out : graph.out_neighbors(u))
        edges.emplace_back(u, out.vertex, out.weight);
    const std::size_t m = edges.size();
    for (std::uint64_t world = 0; world < (std::uint64_t{1} << m); ++world) {
      Masks live_out(n, 0);
      double probability = 1.0;
      for (std::size_t e = 0; e < m; ++e) {
        const auto &[u, v, p] = edges[e];
        if (world >> e & 1) {
          live_out[u] |= 1u << v;
          probability *= p;
        } else {
          probability *= 1.0 - p;
        }
      }
      accumulate(live_out, probability);
    }
  } else {
    // Mixed-radix counter: choice[v] in [0, indeg(v)], indeg(v) = no edge.
    std::vector<std::size_t> choice(n, 0);
    for (;;) {
      Masks live_out(n, 0);
      double probability = 1.0;
      for (vertex_t v = 0; v < n; ++v) {
        const auto in = graph.in_neighbors(v);
        if (choice[v] < in.size()) {
          live_out[in[choice[v]].vertex] |= 1u << v;
          probability *= in[choice[v]].weight;
        } else {
          double none = 1.0;
          for (const Adjacency &edge : in) none -= edge.weight;
          probability *= std::max(0.0, none);
        }
      }
      accumulate(live_out, probability);
      vertex_t v = 0;
      while (v < n && ++choice[v] > graph.in_degree(v)) choice[v++] = 0;
      if (v == n) break;
    }
  }
  return sigma;
}

using OracleCell = std::tuple<std::size_t, std::uint32_t>; // graph, k

class ApproximationOracle : public ::testing::TestWithParam<OracleCell> {};

TEST_P(ApproximationOracle, ImmReachesTheGuaranteeAndThreadsAgree) {
  const auto [index, k] = GetParam();
  const TinyGraph tiny = tiny_graphs()[index];
  const CsrGraph graph = build(tiny);
  const vertex_t n = graph.num_vertices();
  ASSERT_LE(n, 8u);
  ASSERT_LE(graph.num_edges(), 16u);

  const std::vector<double> sigma = exact_spread_table(graph, tiny.model);
  // Sanity: the worlds' probabilities sum to one, so seeding every vertex
  // spreads to exactly n (up to the float rounding of the edge weights).
  EXPECT_NEAR(sigma[(std::size_t{1} << n) - 1], n, 1e-5);
  double opt = 0.0;
  double worst = static_cast<double>(n);
  for (std::size_t s = 0; s < sigma.size(); ++s) {
    if (static_cast<std::uint32_t>(std::popcount(s)) != k) continue;
    opt = std::max(opt, sigma[s]);
    worst = std::min(worst, sigma[s]);
  }

  const double epsilon = 0.1;
  const double bound = (1.0 - 1.0 / std::exp(1.0) - epsilon) * opt;
  // The oracle only discriminates if some k-set misses the bound.
  ASSERT_LT(worst, bound) << tiny.name << ": every k-set meets the bound";
  const int runs = 100;
  const int required = static_cast<int>(
      std::ceil((1.0 - 1.0 / static_cast<double>(n)) * runs));

  int reached = 0;
  for (int run = 0; run < runs; ++run) {
    ImmOptions options;
    options.epsilon = epsilon;
    options.l = 1.0;
    options.k = k;
    options.model = tiny.model;
    options.seed = 1000 + static_cast<std::uint64_t>(run);
    const ImmResult sequential = imm_sequential(graph, options);
    ASSERT_EQ(sequential.seeds.size(), k);
    std::size_t mask = 0;
    for (vertex_t seed : sequential.seeds) mask |= std::size_t{1} << seed;
    ASSERT_EQ(static_cast<std::uint32_t>(std::popcount(mask)), k)
        << "duplicate seed at run " << run;
    if (sigma[mask] >= bound) ++reached;

    options.num_threads = 4;
    const ImmResult threaded = imm_multithreaded(graph, options);
    EXPECT_EQ(threaded.seeds, sequential.seeds) << "run " << run;
  }
  EXPECT_GE(reached, required)
      << tiny.name << " k=" << k << ": OPT=" << opt << ", bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    TinyGraphs, ApproximationOracle,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(2u, 3u)),
    [](const auto &cell) {
      return std::string(tiny_graphs()[std::get<0>(cell.param)].name) + "_k" +
             std::to_string(std::get<1>(cell.param));
    });

} // namespace
} // namespace ripples
