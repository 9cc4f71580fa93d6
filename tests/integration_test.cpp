// End-to-end integration tests across modules: registry graph -> weights ->
// IMM driver -> forward-simulation validation; the biology pipeline; and
// cross-driver agreement on registry surrogates.
#include <gtest/gtest.h>

#include <algorithm>

#include "bio/enrichment.hpp"
#include "bio/expression.hpp"
#include "bio/inference.hpp"
#include "centrality/degree.hpp"
#include "diffusion/simulate.hpp"
#include "graph/registry.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"

namespace ripples {
namespace {

TEST(EndToEnd, RegistryGraphThroughAllDrivers) {
  CsrGraph graph = materialize(find_dataset("cit-HepTh"), 0.02, 77);
  assign_uniform_weights(graph, 78);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.seed = 79;

  ImmResult sequential = imm_sequential(graph, options);
  ImmResult baseline = imm_baseline_hypergraph(graph, options);
  options.num_threads = 3;
  ImmResult multithreaded = imm_multithreaded(graph, options);
  options.num_ranks = 2;
  options.num_threads = 2;
  ImmResult distributed = imm_distributed(graph, options);

  EXPECT_EQ(sequential.seeds, baseline.seeds);
  EXPECT_EQ(sequential.seeds, multithreaded.seeds);
  EXPECT_EQ(sequential.seeds, distributed.seeds);

  // The selected seeds must influence a macroscopic share of this
  // supercritical graph (uniform [0,1) IC weights).
  InfluenceEstimate influence = estimate_influence(
      graph, sequential.seeds, options.model, 500, 80);
  EXPECT_GT(influence.mean,
            0.1 * static_cast<double>(graph.num_vertices()));
}

TEST(EndToEnd, SeedSetQualityTracksKAndEpsilon) {
  // Figure 1's qualitative story: more seeds activate more vertices, and a
  // tighter epsilon never hurts (up to noise).
  CsrGraph graph = materialize(find_dataset("soc-Epinions1"), 0.01, 81);
  assign_constant_weights(graph, 0.05f);

  ImmOptions options;
  options.epsilon = 0.5;
  options.seed = 82;

  double previous = 0.0;
  for (std::uint32_t k : {5u, 20u, 60u}) {
    options.k = k;
    ImmResult result = imm_sequential(graph, options);
    double sigma = estimate_influence(graph, result.seeds, options.model,
                                      1000, 83)
                       .mean;
    EXPECT_GT(sigma, previous) << "k=" << k;
    previous = sigma;
  }
}

TEST(EndToEnd, LtPipelineOnRegistrySurrogate) {
  CsrGraph graph = materialize(find_dataset("com-DBLP"), 0.005, 84);
  assign_uniform_weights(graph, 85);
  renormalize_linear_threshold(graph);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 10;
  options.model = DiffusionModel::LinearThreshold;
  options.seed = 86;
  options.num_threads = 2;

  ImmResult result = imm_multithreaded(graph, options);
  ASSERT_EQ(result.seeds.size(), 10u);
  InfluenceEstimate influence = estimate_influence(
      graph, result.seeds, options.model, 1000, 87);
  EXPECT_GE(influence.mean, 10.0); // at least the seeds themselves
}

TEST(EndToEnd, BiologyCaseStudyPipeline) {
  // The full Section 5 flow on synthetic data: expression -> co-expression
  // network -> IMM vs degree top-k -> pathway enrichment.  IMM must find
  // module-aligned (significantly enriched) features, like the paper's
  // "cancer-related pathways" observation.
  // Plenty of background features keep the null expectation of pathway
  // overlap low, so module-concentrated selections are clearly enriched —
  // the regime the paper's 10k+-feature omics networks live in.
  bio::ExpressionConfig expression_config;
  expression_config.num_features = 800;
  expression_config.num_samples = 60;
  expression_config.num_modules = 4;
  expression_config.module_fraction = 0.225;
  expression_config.seed = 88;
  bio::ExpressionMatrix matrix = bio::synthesize_expression(expression_config);

  // High correlation threshold, as real pipelines use: below ~0.5 the
  // spurious correlations among background features form a supercritical
  // noise web that dominates the reverse-reachability structure.
  bio::InferenceConfig inference_config;
  inference_config.edges_per_target = 6;
  inference_config.min_abs_correlation = 0.5;
  EdgeList network = bio::infer_coexpression_network(matrix, inference_config);
  CsrGraph graph(network);
  // Calibrate relevance scores into activation probabilities (the paper's
  // intro: when edge probabilities are not readily available from the
  // domain, they must be chosen).  Raw |r| ~ 0.65 makes a single seed's RRR
  // span its whole module; scaling keeps influence local so multi-seed
  // coverage is informative.
  graph.transform_weights([](float w) { return 0.12f * w; });

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 32;
  options.seed = 89;
  ImmResult imm = imm_sequential(graph, options);

  bio::PathwayConfig pathway_config;
  pathway_config.member_fraction = 0.8;
  pathway_config.num_random_pathways = 20;
  bio::PathwayDatabase database =
      bio::synthesize_pathways(matrix, pathway_config);

  std::vector<std::uint32_t> imm_selected(imm.seeds.begin(), imm.seeds.end());
  auto imm_rows = bio::enrich(imm_selected, database, matrix.num_features());
  std::size_t imm_significant = bio::count_significant(imm_rows);
  EXPECT_GT(imm_significant, 0u)
      << "IMM selection must enrich module pathways";

  // Degree ranking for comparison (the paper finds the methods
  // complementary; both should enrich real pathways on planted data).
  std::vector<std::uint32_t> degree = degree_centrality(graph);
  auto degree_top =
      top_k_by_score(std::span<const std::uint32_t>(degree), options.k);
  std::vector<std::uint32_t> degree_selected(degree_top.begin(),
                                             degree_top.end());
  auto degree_rows =
      bio::enrich(degree_selected, database, matrix.num_features());
  EXPECT_GT(bio::count_significant(degree_rows), 0u);
}

TEST(EndToEnd, DistributedOnRegistrySurrogate) {
  CsrGraph graph = materialize(find_dataset("com-Amazon"), 0.003, 90);
  assign_uniform_weights(graph, 91);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 6;
  options.seed = 92;
  options.num_ranks = 4;

  ImmResult result = imm_distributed(graph, options);
  ASSERT_EQ(result.seeds.size(), 6u);
  InfluenceEstimate influence = estimate_influence(
      graph, result.seeds, options.model, 500, 93);
  EXPECT_GT(influence.mean, 6.0);
}

TEST(EndToEnd, PhaseTimersCoverTheRun) {
  CsrGraph graph = materialize(find_dataset("cit-HepTh"), 0.02, 94);
  assign_uniform_weights(graph, 95);
  ImmOptions options;
  options.epsilon = 0.4;
  options.k = 10;
  options.seed = 96;
  ImmResult result = imm_sequential(graph, options);
  // Every phase is non-negative and the breakdown sums to a plausible total.
  double sum = 0.0;
  for (Phase phase : {Phase::EstimateTheta, Phase::Sample, Phase::SelectSeeds,
                      Phase::Other}) {
    EXPECT_GE(result.timers.total(phase), 0.0);
    sum += result.timers.total(phase);
  }
  EXPECT_GT(sum, 0.0);
}

} // namespace
} // namespace ripples
