// Tests for the graph-partitioned distributed driver (the paper's
// future-work extension): output contract, refusal of the budget options,
// rank-count invariance, quality against the non-partitioned drivers, and
// behaviour on both models.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "diffusion/simulate.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"

namespace ripples {
namespace {

CsrGraph test_graph(DiffusionModel model, std::uint64_t seed = 21) {
  CsrGraph graph(barabasi_albert(500, 3, seed));
  assign_uniform_weights(graph, seed + 1);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

ImmOptions base_options(DiffusionModel model) {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = model;
  options.seed = 1234;
  return options;
}

class PartitionedDriver : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(PartitionedDriver, SatisfiesOutputContract) {
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  options.num_ranks = 3;
  ImmResult result = imm_distributed_partitioned(graph, options);
  ASSERT_EQ(result.seeds.size(), options.k);
  std::set<vertex_t> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), options.k);
  for (vertex_t s : result.seeds) EXPECT_LT(s, graph.num_vertices());
  EXPECT_GE(result.theta, 1u);
  EXPECT_GE(result.num_samples, result.theta);
  EXPECT_GT(result.coverage_fraction, 0.0);
  EXPECT_GT(result.rrr_peak_bytes, 0u);
}

TEST_P(PartitionedDriver, RefusesABudgetAndForcedCompression) {
  // No budget governs the per-rank slices, so both options would be
  // ignored; the driver refuses them up front instead.
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  options.num_ranks = 2;
  options.mem_budget = 1 << 20;
  EXPECT_THROW((void)imm_distributed_partitioned(graph, options),
               std::invalid_argument);
  options.mem_budget = 0;
  options.rrr_compress = CompressMode::Always;
  EXPECT_THROW((void)imm_distributed_partitioned(graph, options),
               std::invalid_argument);
  options.rrr_compress = CompressMode::Auto;
  EXPECT_EQ(imm_distributed_partitioned(graph, options).seeds.size(),
            options.k);
}

TEST_P(PartitionedDriver, ResultIsInvariantToRankCount) {
  // Per-(sample, vertex) streams: the realized random experiment — and
  // therefore the seed set — must not depend on how many ranks share it.
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  options.num_ranks = 1;
  ImmResult reference = imm_distributed_partitioned(graph, options);
  for (int ranks : {2, 3, 5, 8}) {
    options.num_ranks = ranks;
    ImmResult result = imm_distributed_partitioned(graph, options);
    EXPECT_EQ(result.seeds, reference.seeds) << "ranks=" << ranks;
    EXPECT_EQ(result.theta, reference.theta);
    EXPECT_EQ(result.num_samples, reference.num_samples);
    EXPECT_DOUBLE_EQ(result.coverage_fraction, reference.coverage_fraction);
  }
}

TEST_P(PartitionedDriver, QualityMatchesNonPartitionedDriver) {
  // Different RNG discipline => different seeds, but the influence of the
  // selected sets must be statistically comparable.
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  options.num_ranks = 4;
  ImmResult partitioned = imm_distributed_partitioned(graph, options);

  ImmOptions plain_options = base_options(GetParam());
  ImmResult plain = imm_sequential(graph, plain_options);

  double sigma_partitioned =
      estimate_influence(graph, partitioned.seeds, options.model, 2000, 5).mean;
  double sigma_plain =
      estimate_influence(graph, plain.seeds, options.model, 2000, 5).mean;
  EXPECT_GT(sigma_partitioned, 0.85 * sigma_plain);
}

TEST_P(PartitionedDriver, SliceAssociationsMatchSampleMass) {
  // The per-rank slices partition each sample, so total associations must
  // be of the same order as a non-partitioned run with the same theta
  // trajectory would store (not double-counted, not dropped).
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  options.num_ranks = 1;
  ImmResult one = imm_distributed_partitioned(graph, options);
  options.num_ranks = 4;
  ImmResult four = imm_distributed_partitioned(graph, options);
  EXPECT_EQ(one.total_associations, four.total_associations);
}

INSTANTIATE_TEST_SUITE_P(Models, PartitionedDriver,
                         ::testing::Values(DiffusionModel::IndependentCascade,
                                           DiffusionModel::LinearThreshold));

TEST(PartitionedDriver, WorksWithMoreRanksThanUsefulWork) {
  // Tiny graph across many ranks: some ranks own one or two vertices; the
  // BFS exchange and ownership arithmetic must still be exact.
  CsrGraph graph(path_graph(12));
  assign_constant_weights(graph, 1.0f);
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 2;
  options.seed = 5;
  options.num_ranks = 8;
  ImmResult result = imm_distributed_partitioned(graph, options);
  ASSERT_EQ(result.seeds.size(), 2u);
  // On a deterministic path with p = 1, the RRR set of root v is {0..v},
  // so early path vertices cover the most samples: the first seed must lie
  // near the head of the path.
  EXPECT_LT(result.seeds[0], 4u);
}

TEST(PartitionedDriver, DeterministicAcrossRepeatedRuns) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions options = base_options(DiffusionModel::IndependentCascade);
  options.num_ranks = 3;
  ImmResult a = imm_distributed_partitioned(graph, options);
  ImmResult b = imm_distributed_partitioned(graph, options);
  EXPECT_EQ(a.seeds, b.seeds);
}

} // namespace
} // namespace ripples
