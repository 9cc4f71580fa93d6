// Tests for the sampling engines: byte identity of every counter-mode entry
// point with the per-index RRRGenerator oracle (which also makes them
// thread-count invariant, the central parallel-correctness property),
// incremental extension, and equivalence of the compact and hypergraph
// storage paths.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <omp.h>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/budget.hpp"
#include "imm/sampler.hpp"
#include "imm/sampler_fused.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"
#include "support/tsan.hpp"

namespace ripples {
namespace {

CsrGraph test_graph(std::uint64_t seed) {
  CsrGraph graph(barabasi_albert(400, 3, seed));
  assign_uniform_weights(graph, seed + 1);
  return graph;
}

TEST(SampleSequential, ProducesRequestedCount) {
  CsrGraph graph = test_graph(1);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 100, 7,
                    collection);
  EXPECT_EQ(collection.size(), 100u);
  for (const RRRSet &set : collection.sets()) {
    EXPECT_FALSE(set.empty());
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  }
}

TEST(SampleSequential, ExtensionKeepsExistingSamples) {
  CsrGraph graph = test_graph(2);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 50, 7,
                    collection);
  std::vector<RRRSet> snapshot = collection.sets();
  sample_sequential(graph, DiffusionModel::IndependentCascade, 120, 7,
                    collection);
  ASSERT_EQ(collection.size(), 120u);
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(collection.sets()[i], snapshot[i]) << "sample " << i;
}

TEST(SampleSequential, TargetBelowCurrentIsNoOp) {
  CsrGraph graph = test_graph(3);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 60, 7,
                    collection);
  sample_sequential(graph, DiffusionModel::IndependentCascade, 30, 7,
                    collection);
  EXPECT_EQ(collection.size(), 60u);
}

TEST(SampleSequentialFlat, MatchesCompactSamplesExactly) {
  CsrGraph graph = test_graph(10);
  RRRCollection compact;
  FlatRRRCollection flat;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 120, 29, compact);
  sample_sequential_flat(graph, DiffusionModel::IndependentCascade, 120, 29,
                         flat);
  ASSERT_EQ(flat.size(), compact.size());
  for (std::size_t j = 0; j < flat.size(); ++j) {
    auto slice = flat.sample(j);
    ASSERT_EQ(slice.size(), compact.sets()[j].size()) << "sample " << j;
    for (std::size_t i = 0; i < slice.size(); ++i)
      EXPECT_EQ(slice[i], compact.sets()[j][i]);
  }
  EXPECT_EQ(flat.total_associations(), compact.total_associations());
}

TEST(SampleSequentialFlat, ArenaFootprintBeatsPerSampleVectors) {
  CsrGraph graph = test_graph(11);
  RRRCollection compact;
  FlatRRRCollection flat;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 300, 31, compact);
  sample_sequential_flat(graph, DiffusionModel::IndependentCascade, 300, 31,
                         flat);
  flat.shrink_to_fit();
  EXPECT_LT(flat.footprint_bytes(), compact.footprint_bytes());
}

TEST(SampleHypergraph, StoresSameSamplesWithIncidence) {
  CsrGraph graph = test_graph(6);
  RRRCollection compact;
  HypergraphCollection dual(graph.num_vertices());
  sample_sequential(graph, DiffusionModel::IndependentCascade, 120, 17, compact);
  sample_hypergraph(graph, DiffusionModel::IndependentCascade, 120, 17, dual);
  ASSERT_EQ(dual.size(), compact.size());
  for (std::size_t i = 0; i < compact.size(); ++i)
    EXPECT_EQ(dual.sets()[i], compact.sets()[i]);

  // Incidence must be the exact inverse relation.
  for (vertex_t v = 0; v < graph.num_vertices(); ++v)
    for (std::uint32_t j : dual.samples_containing(v))
      EXPECT_TRUE(std::binary_search(dual.sets()[j].begin(),
                                     dual.sets()[j].end(), v));
  std::size_t incidence_total = 0;
  for (vertex_t v = 0; v < graph.num_vertices(); ++v)
    incidence_total += dual.samples_containing(v).size();
  std::size_t sample_total = 0;
  for (const RRRSet &set : dual.sets()) sample_total += set.size();
  EXPECT_EQ(incidence_total, sample_total);
}

TEST(RRRCollectionStorage, HypergraphStoresAssociationsTwice) {
  // The paper: "each association between a sample and a vertex is stored
  // twice" in the baseline.  total_associations must reflect exactly 2x.
  CsrGraph graph = test_graph(7);
  RRRCollection compact;
  HypergraphCollection dual(graph.num_vertices());
  sample_sequential(graph, DiffusionModel::IndependentCascade, 80, 19, compact);
  sample_hypergraph(graph, DiffusionModel::IndependentCascade, 80, 19, dual);
  EXPECT_EQ(dual.total_associations(), 2 * compact.total_associations());
  EXPECT_GT(dual.footprint_bytes(), compact.footprint_bytes());
}

TEST(RRRCollectionStorage, FootprintGrowsWithSamples) {
  CsrGraph graph = test_graph(8);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 10, 23,
                    collection);
  std::size_t small = collection.footprint_bytes();
  sample_sequential(graph, DiffusionModel::IndependentCascade, 100, 23,
                    collection);
  EXPECT_GT(collection.footprint_bytes(), small);
  EXPECT_GT(collection.total_associations(), 0u);
}

// --- the per-index oracle ----------------------------------------------------
//
// Every counter-mode entry point runs one block kernel whose engine follows
// the model (fused lanes on IC, the scalar walk on LT), and each promises
// the bytes of RRRGenerator::generate_random_root on sample_stream(seed, i)
// for every index i, whatever the batch geometry, thread count or chunk
// placement.  The sweep crosses both models with graph shapes chosen to
// stress different kernel paths: hub-heavy preferential attachment (long
// frontier rows), sparse uniform random (many single-vertex sets), a ring
// lattice (uniform short rows), a bidirectional star (every lane collides
// on the hub immediately), a path (deep narrow walks), and a small complete
// graph (fewer vertices than lanes, dense emission path).
struct Shape {
  const char *name;
  EdgeList (*make)();
};

const Shape kShapes[] = {
    {"barabasi_albert", [] { return barabasi_albert(400, 3, 21); }},
    {"erdos_renyi", [] { return erdos_renyi(300, 900, 22); }},
    {"watts_strogatz", [] { return watts_strogatz(256, 4, 0.1, 23); }},
    {"star", [] { return star_graph(100, true); }},
    {"path", [] { return path_graph(50); }},
    {"complete", [] { return complete_graph(40); }},
};

CsrGraph shape_graph(DiffusionModel model, int shape_index) {
  CsrGraph graph(kShapes[shape_index].make());
  assign_uniform_weights(graph, 91);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

/// The oracle: one RRRGenerator, one index at a time.
std::vector<RRRSet> oracle(const CsrGraph &graph, DiffusionModel model,
                           std::uint64_t seed,
                           std::span<const std::uint64_t> indices) {
  RRRGenerator generator(graph);
  std::vector<RRRSet> sets(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    Philox4x32 rng = sample_stream(seed, indices[j]);
    generator.generate_random_root(model, rng, sets[j]);
  }
  return sets;
}

std::vector<std::uint64_t> first_indices(std::uint64_t count) {
  std::vector<std::uint64_t> indices(count);
  std::iota(indices.begin(), indices.end(), 0);
  return indices;
}

/// Non-contiguous, out-of-order indices, as the healing path regenerates:
/// each index must come out the same whichever lanes its neighbours hold.
std::vector<std::uint64_t> scattered_indices() {
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < 450; i += 3) indices.push_back(i ^ 1);
  return indices;
}

void expect_sets(const RRRCollection &collection,
                 const std::vector<RRRSet> &expected,
                 std::span<const std::uint64_t> indices,
                 const std::string &context) {
  ASSERT_EQ(collection.size(), expected.size()) << context;
  for (std::size_t j = 0; j < expected.size(); ++j)
    EXPECT_EQ(collection.sets()[j], expected[j])
        << context << ", index " << indices[j];
}

std::string cell_context(DiffusionModel model, int shape_index) {
  return std::string(to_string(model)) + " on " + kShapes[shape_index].name;
}

class EngineOracle
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, int>> {};

TEST_P(EngineOracle, SequentialMatchesOracle) {
  auto [model, shape] = GetParam();
  const CsrGraph graph = shape_graph(model, shape);
  // 130 = two full 64-lane blocks plus a 2-lane remainder block.
  const std::vector<std::uint64_t> indices = first_indices(130);
  RRRCollection collection;
  sample_sequential(graph, model, 130, 37, collection);
  expect_sets(collection, oracle(graph, model, 37, indices), indices,
              cell_context(model, shape));
}

TEST_P(EngineOracle, SingleSampleBlockMatchesOracle) {
  auto [model, shape] = GetParam();
  const CsrGraph graph = shape_graph(model, shape);
  const std::vector<std::uint64_t> indices = first_indices(1);
  RRRCollection collection;
  sample_sequential(graph, model, 1, 41, collection);
  expect_sets(collection, oracle(graph, model, 41, indices), indices,
              cell_context(model, shape));
}

TEST(EngineOracleInline, SequentialCallsInsideACallersRegionMatchOracle) {
  // A one-thread call runs inline, so it must not share its blocks with an
  // OpenMP region the caller is already in: every thread's own collection
  // gets all 130 sets.
  const CsrGraph graph = test_graph(5);
  const std::vector<std::uint64_t> indices = first_indices(130);
  const std::vector<RRRSet> expected =
      oracle(graph, DiffusionModel::IndependentCascade, 71, indices);
  std::vector<RRRCollection> per_thread(4);
  tsan_release(per_thread.data());
#pragma omp parallel num_threads(4)
  {
    tsan_acquire(per_thread.data());
    sample_sequential(
        graph, DiffusionModel::IndependentCascade, 130, 71,
        per_thread[static_cast<std::size_t>(omp_get_thread_num())]);
    tsan_release(per_thread.data());
  }
  tsan_acquire(per_thread.data());
  for (std::size_t t = 0; t < per_thread.size(); ++t)
    expect_sets(per_thread[t], expected, indices,
                "thread " + std::to_string(t));
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndShapes, EngineOracle,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Range(0, 6)));

class EngineThreadOracle
    : public ::testing::TestWithParam<
          std::tuple<DiffusionModel, int, unsigned>> {
protected:
  void SetUp() override {
    std::tie(model, shape, threads) = GetParam();
    graph = shape_graph(model, shape);
    context = cell_context(model, shape) + ", " + std::to_string(threads) +
              " threads";
  }

  DiffusionModel model{};
  int shape = 0;
  unsigned threads = 1;
  CsrGraph graph;
  std::string context;
};

TEST_P(EngineThreadOracle, MultithreadedMatchesOracle) {
  const std::vector<std::uint64_t> indices = first_indices(200);
  RRRCollection collection;
  sample_multithreaded(graph, model, 200, 11, threads, collection);
  expect_sets(collection, oracle(graph, model, 11, indices), indices,
              context);
}

TEST_P(EngineThreadOracle, IncrementalExtensionMatchesOracle) {
  // Extension re-blocks from unaligned starts (40 -> 90 -> 200), so lane
  // assignments differ from a one-shot run; identity must hold anyway.
  const std::vector<std::uint64_t> indices = first_indices(200);
  RRRCollection collection;
  for (std::uint64_t target : {40u, 90u, 200u})
    sample_multithreaded(graph, model, target, 43, threads, collection);
  expect_sets(collection, oracle(graph, model, 43, indices), indices,
              context);
}

TEST_P(EngineThreadOracle, ScatteredCounterIndicesMatchOracle) {
  const std::vector<std::uint64_t> indices = scattered_indices();
  RRRCollection collection;
  sample_counter_indices(graph, model, 47, indices, threads, collection);
  expect_sets(collection, oracle(graph, model, 47, indices), indices,
              context);
}

TEST_P(EngineThreadOracle, ChunkedMatchesOracleUnderEveryStealSchedule) {
  // Chunks smaller than, equal to, and larger than a 64-lane block, under
  // the owner-pop and the steal-everything schedules.
  const std::vector<std::uint64_t> indices = scattered_indices();
  const std::vector<RRRSet> expected = oracle(graph, model, 53, indices);
  for (steal_schedule::Mode mode :
       {steal_schedule::Mode::Default,
        steal_schedule::Mode::StealEverything}) {
    steal_schedule::ScopedPlan plan({mode, 0});
    for (std::uint64_t chunk : {0u, 5u, 64u, 100u}) {
      RRRCollection collection;
      detail::sample_counter_chunked(graph, model, 53, indices, threads,
                                     chunk, collection);
      expect_sets(collection, expected, indices,
                  context + ", chunk " + std::to_string(chunk));
    }
  }
}

TEST_P(EngineThreadOracle, GovernedMatchesOracleWithLanesGrantedOrRefused) {
  // A 1-byte budget refuses every lane reservation, so IC falls back to the
  // scalar walk; both ways the bytes are the oracle's.
  const std::vector<std::uint64_t> indices = scattered_indices();
  const std::vector<RRRSet> expected = oracle(graph, model, 59, indices);
  for (std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
    detail::ScopedBudget scoped(budget, CompressMode::Auto, {});
    for (std::uint64_t chunk : {0u, 16u}) {
      RRRCollection collection;
      sample_counter_governed(graph, model, 59, indices, threads, chunk,
                              collection);
      expect_sets(collection, expected, indices,
                  context + ", budget " + std::to_string(budget) +
                      ", chunk " + std::to_string(chunk));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsShapesThreads, EngineThreadOracle,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Range(0, 6),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// The entry points move an IC batch to the lanes only once its walks pay
// for them, which star and path batches never do; the kernel itself is
// checked against the oracle on every shape and lane count here.
class FusedLanesOracle : public ::testing::TestWithParam<int> {};

TEST_P(FusedLanesOracle, EveryLaneCountMatchesOracle) {
  const CsrGraph graph =
      shape_graph(DiffusionModel::IndependentCascade, GetParam());
  const std::vector<std::uint64_t> indices = scattered_indices();
  const std::vector<RRRSet> expected =
      oracle(graph, DiffusionModel::IndependentCascade, 61, indices);
  FusedSampler sampler(graph);
  for (std::size_t lanes : {1u, 2u, 63u, 64u}) {
    std::vector<RRRSet> sets(indices.size());
    for (std::size_t lo = 0; lo < indices.size(); lo += lanes) {
      const std::size_t len = std::min(lanes, indices.size() - lo);
      sampler.generate(61, std::span(indices).subspan(lo, len), &sets[lo]);
    }
    for (std::size_t j = 0; j < indices.size(); ++j)
      EXPECT_EQ(sets[j], expected[j])
          << kShapes[GetParam()].name << ", " << lanes << " lanes, index "
          << indices[j];
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedLanesOracle, ::testing::Range(0, 6));

/// Fused frontier passes one sample_multithreaded call runs.
std::uint64_t lane_passes(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t count, unsigned threads) {
  metrics::set_enabled(true);
  metrics::Counter &passes =
      metrics::Registry::instance().counter("sampler.fused.passes");
  const std::uint64_t before = passes.value();
  RRRCollection collection;
  sample_multithreaded(graph, model, count, 67, threads, collection);
  const std::uint64_t after = passes.value();
  metrics::set_enabled(false);
  return after - before;
}

TEST(LaneSwitch, LargeIcCascadesMoveToTheLanes) {
  // Sets of ~350 vertices: a few walks cover the lanes' O(n + m) build.
  const CsrGraph graph = test_graph(5);
  for (unsigned threads : {1u, 2u})
    EXPECT_GT(
        lane_passes(graph, DiffusionModel::IndependentCascade, 450, threads),
        0u)
        << threads << " threads";
}

TEST(LaneSwitch, SmallBatchesTinyCascadesAndLtStayScalar) {
  const CsrGraph large = test_graph(5);
  EXPECT_EQ(lane_passes(large, DiffusionModel::IndependentCascade, 1, 1), 0u);

  CsrGraph tiny(erdos_renyi(2000, 8000, 7));
  assign_constant_weights(tiny, 0.01f);
  EXPECT_EQ(lane_passes(tiny, DiffusionModel::IndependentCascade, 2000, 2),
            0u);

  CsrGraph lt = test_graph(5);
  renormalize_linear_threshold(lt);
  EXPECT_EQ(lane_passes(lt, DiffusionModel::LinearThreshold, 450, 2), 0u);
}

// --- leap-frog index arithmetic --------------------------------------------

TEST(LeapfrogFirstIndex, FindsTheNextStreamMember) {
  EXPECT_EQ(leapfrog_first_index(0, 0, 4), 0u);
  EXPECT_EQ(leapfrog_first_index(0, 3, 4), 3u);
  EXPECT_EQ(leapfrog_first_index(7, 3, 5), 8u);
  EXPECT_EQ(leapfrog_first_index(8, 3, 5), 8u);
  EXPECT_EQ(leapfrog_first_index(9, 3, 5), 13u);
}

TEST(LeapfrogFirstIndex, SaturatesInsteadOfWrappingNearMax) {
  // from = 2^64 - 2 is congruent to 2 mod 4; stream 0's next index would be
  // 2^64, which must saturate to UINT64_MAX (an unreachable sample index),
  // not wrap to 0 and regenerate the whole range.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(leapfrog_first_index(max - 1, 0, 4), max);
  // A reachable index just below the edge still comes out exact:
  // 2^64 - 2 is congruent to 2 mod 4, so it is stream 2's own member.
  EXPECT_EQ(leapfrog_first_index(max - 1, 2, 4), max - 1);
}

TEST(LeapfrogIndices, TerminatesWhenStrideWrapsPastMax) {
  // num_streams = 2^63 puts exactly two indices of stream 5 in
  // [0, UINT64_MAX): 5 and 5 + 2^63.  The next candidate, 5 + 2^64, wraps
  // to 5 again — without the wrap guard this loop never terminates.
  const std::uint64_t huge_stride = std::uint64_t{1} << 63;
  const std::uint64_t stream = 5;
  EXPECT_EQ(leapfrog_indices({&stream, 1}, 0,
                             std::numeric_limits<std::uint64_t>::max(),
                             huge_stride),
            (std::vector<std::uint64_t>{5, 5 + huge_stride}));
}

TEST(LeapfrogIndices, ListsEachStreamInAscendingOrder) {
  const std::vector<std::uint64_t> streams{2, 0};
  EXPECT_EQ(leapfrog_indices(streams, 3, 12, 4),
            (std::vector<std::uint64_t>{6, 10, 4, 8}));
}

TEST(SamplerDeterminism, DifferentSeedsGiveDifferentCollections) {
  CsrGraph graph = test_graph(9);
  RRRCollection a, b;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 50, 1, a);
  sample_sequential(graph, DiffusionModel::IndependentCascade, 50, 2, b);
  EXPECT_NE(a.sets(), b.sets());
}

} // namespace
} // namespace ripples
