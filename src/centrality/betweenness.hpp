/// \file betweenness.hpp
/// \brief Brandes betweenness centrality (exact and source-sampled).
///
/// Betweenness is the second topological reference measure of the paper's
/// biology case study ("a measure of how many shortest paths linking two
/// random nodes pass through the node in question").  Exact Brandes is
/// O(nm); for the case-study-sized networks that is fine, and a uniform
/// source-sampled estimator is provided for larger inputs.  The per-source
/// accumulations are independent, so the loop is OpenMP-parallel over
/// fixed-size source blocks whose partial score vectors add up exactly, as
/// fixed point: results are bit-identical at every thread count.
#ifndef RIPPLES_CENTRALITY_BETWEENNESS_HPP
#define RIPPLES_CENTRALITY_BETWEENNESS_HPP

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace ripples {

/// Exact Brandes over unweighted shortest paths on the directed graph.
[[nodiscard]] std::vector<double> betweenness_centrality(const CsrGraph &graph);

/// Estimated betweenness from \p num_sources uniformly sampled sources,
/// rescaled by n / num_sources (unbiased).  Deterministic in \p seed.
[[nodiscard]] std::vector<double>
betweenness_centrality_sampled(const CsrGraph &graph, vertex_t num_sources,
                               std::uint64_t seed);

} // namespace ripples

#endif // RIPPLES_CENTRALITY_BETWEENNESS_HPP
