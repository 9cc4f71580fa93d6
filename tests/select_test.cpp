// Tests for SelectSeeds: greedy max-coverage correctness against brute
// force, equivalence of the sequential reference, the Algorithm 4 kernel
// over every sample source (plain sets, flat arena, compressed arena) at
// every thread count and on both sides of its index-or-scan rule, the lazy
// and hypergraph variants, and the counter/retirement building blocks with
// and without the decrement log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "imm/select.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"

namespace ripples {
namespace {

std::vector<RRRSet> random_samples(vertex_t num_vertices, std::size_t count,
                                   std::size_t max_size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<RRRSet> samples(count);
  for (RRRSet &sample : samples) {
    std::size_t size = 1 + uniform_index(rng, max_size);
    while (sample.size() < size) {
      auto v = static_cast<vertex_t>(uniform_index(rng, num_vertices));
      if (std::find(sample.begin(), sample.end(), v) == sample.end())
        sample.push_back(v);
    }
    std::sort(sample.begin(), sample.end());
  }
  return samples;
}

/// Exhaustive max-coverage for tiny instances (the correctness oracle).
std::uint64_t best_coverage_brute_force(vertex_t num_vertices, std::uint32_t k,
                                        std::span<const RRRSet> samples) {
  std::vector<vertex_t> combo(k);
  std::uint64_t best = 0;
  // Enumerate all k-subsets of [0, n).
  std::vector<std::uint32_t> index(k);
  for (std::uint32_t i = 0; i < k; ++i) index[i] = i;
  for (;;) {
    std::uint64_t covered = 0;
    for (const RRRSet &sample : samples) {
      bool hit = false;
      for (std::uint32_t i : index)
        if (std::binary_search(sample.begin(), sample.end(), vertex_t{i})) {
          hit = true;
          break;
        }
      covered += hit ? 1 : 0;
    }
    best = std::max(best, covered);
    // Next combination.
    int pos = static_cast<int>(k) - 1;
    while (pos >= 0 &&
           index[static_cast<std::uint32_t>(pos)] ==
               num_vertices - k + static_cast<std::uint32_t>(pos))
      --pos;
    if (pos < 0) break;
    ++index[static_cast<std::uint32_t>(pos)];
    for (std::uint32_t i = static_cast<std::uint32_t>(pos) + 1; i < k; ++i)
      index[i] = index[i - 1] + 1;
  }
  (void)combo;
  return best;
}

TEST(SelectSeeds, PicksTheObviousCoveringVertex) {
  // Vertex 7 appears in every sample; it must be picked first.
  std::vector<RRRSet> samples = {{1, 7}, {2, 7}, {3, 7}, {7, 9}};
  SelectionResult result = select_seeds(10, 1, samples);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 7u);
  EXPECT_EQ(result.covered_samples, 4u);
  EXPECT_EQ(result.total_samples, 4u);
  EXPECT_DOUBLE_EQ(result.coverage_fraction(), 1.0);
}

TEST(SelectSeeds, RetiresCoveredSamplesBeforeSecondPick) {
  // 7 covers four samples and is picked first.  After retiring them, vertex
  // 1's counter drops to zero, so the best remaining vertex is 4 (covers the
  // two leftover samples) — picking by stale counters would choose 1.
  std::vector<RRRSet> samples = {{1, 7}, {1, 7}, {1, 7}, {7, 9}, {4, 5}, {4, 6}};
  SelectionResult result = select_seeds(10, 2, samples);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 7u);
  EXPECT_EQ(result.seeds[1], 4u);
  EXPECT_EQ(result.covered_samples, 6u);
}

TEST(SelectSeeds, TieBreaksToSmallestId) {
  std::vector<RRRSet> samples = {{2, 5}, {2, 5}};
  SelectionResult result = select_seeds(10, 1, samples);
  EXPECT_EQ(result.seeds[0], 2u);
}

TEST(SelectSeeds, HandlesMoreSeedsThanCoverage) {
  std::vector<RRRSet> samples = {{3}};
  SelectionResult result = select_seeds(5, 3, samples);
  ASSERT_EQ(result.seeds.size(), 3u);
  EXPECT_EQ(result.seeds[0], 3u);
  // Remaining picks fall back to smallest unselected ids with zero counters.
  EXPECT_EQ(result.seeds[1], 0u);
  EXPECT_EQ(result.seeds[2], 1u);
  EXPECT_EQ(result.covered_samples, 1u);
}

TEST(SelectSeeds, EmptySampleSetStillReturnsKSeeds) {
  std::vector<RRRSet> samples;
  SelectionResult result = select_seeds(6, 2, samples);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.covered_samples, 0u);
  EXPECT_DOUBLE_EQ(result.coverage_fraction(), 0.0);
}

TEST(SelectSeeds, GreedyIsWithinTheoreticalFactorOfOptimal) {
  // Greedy max-coverage guarantees (1 - 1/e) of optimal; verify on random
  // instances small enough for brute force.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<RRRSet> samples = random_samples(10, 40, 3, seed);
    SelectionResult greedy = select_seeds(10, 3, samples);
    std::uint64_t optimal = best_coverage_brute_force(10, 3, samples);
    EXPECT_GE(static_cast<double>(greedy.covered_samples),
              (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(optimal))
        << "seed " << seed;
    EXPECT_LE(greedy.covered_samples, optimal);
  }
}

// --- multithreaded (Algorithm 4) equivalence --------------------------------------

class SelectEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(SelectEquivalence, MultithreadedMatchesSequentialExactly) {
  auto [threads, seed] = GetParam();
  const vertex_t n = 200;
  std::vector<RRRSet> samples = random_samples(n, 500, 12, seed);
  SelectionResult sequential = select_seeds(n, 10, samples);
  SelectionResult parallel = select_seeds_multithreaded(n, 10, samples, threads);
  EXPECT_EQ(sequential.seeds, parallel.seeds);
  EXPECT_EQ(sequential.covered_samples, parallel.covered_samples);
  EXPECT_EQ(sequential.total_samples, parallel.total_samples);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, SelectEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u),
                       ::testing::Values(11, 22, 33)));

TEST(SelectSeedsMultithreaded, MoreThreadsThanVerticesIsSafe) {
  std::vector<RRRSet> samples = {{0, 2}, {1, 2}, {2, 3}};
  SelectionResult sequential = select_seeds(4, 2, samples);
  SelectionResult parallel = select_seeds_multithreaded(4, 2, samples, 8);
  EXPECT_EQ(sequential.seeds, parallel.seeds);
}

// --- flat (arena) storage equivalence ----------------------------------------------

class FlatEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatEquivalence, FlatSelectionMatchesCompactExactly) {
  const vertex_t n = 160;
  std::vector<RRRSet> samples = random_samples(n, 400, 9, GetParam());
  FlatRRRCollection flat;
  for (const RRRSet &sample : samples) flat.append(sample);
  SelectionResult compact = select_seeds(n, 9, samples);
  SelectionResult arena = select_seeds_multithreaded(n, 9, flat, 1);
  EXPECT_EQ(compact.seeds, arena.seeds);
  EXPECT_EQ(compact.covered_samples, arena.covered_samples);
  EXPECT_EQ(compact.total_samples, arena.total_samples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatEquivalence,
                         ::testing::Values(61, 62, 63));

// --- lazy-greedy (CELF-style) equivalence ------------------------------------------

class LazyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalence, LazySelectionMatchesEagerExactly) {
  const vertex_t n = 180;
  std::vector<RRRSet> samples = random_samples(n, 450, 10, GetParam());
  SelectionResult eager = select_seeds(n, 12, samples);
  SelectionResult lazy = select_seeds_lazy(n, 12, samples);
  EXPECT_EQ(eager.seeds, lazy.seeds);
  EXPECT_EQ(eager.covered_samples, lazy.covered_samples);
  EXPECT_EQ(eager.total_samples, lazy.total_samples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(SelectSeedsLazy, HandlesZeroCoverageTail) {
  std::vector<RRRSet> samples = {{3}};
  SelectionResult eager = select_seeds(6, 4, samples);
  SelectionResult lazy = select_seeds_lazy(6, 4, samples);
  EXPECT_EQ(eager.seeds, lazy.seeds);
}

TEST(SelectSeedsLazy, EmptySampleSet) {
  std::vector<RRRSet> samples;
  SelectionResult lazy = select_seeds_lazy(5, 2, samples);
  ASSERT_EQ(lazy.seeds.size(), 2u);
  EXPECT_EQ(lazy.seeds[0], 0u);
  EXPECT_EQ(lazy.seeds[1], 1u);
}

// --- hypergraph baseline equivalence ----------------------------------------------

class HypergraphEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HypergraphEquivalence, BaselineSelectionMatchesSequential) {
  const vertex_t n = 150;
  std::vector<RRRSet> samples = random_samples(n, 400, 10, GetParam());
  HypergraphCollection hypergraph(n);
  for (const RRRSet &sample : samples) {
    RRRSet copy = sample;
    hypergraph.add(std::move(copy));
  }
  SelectionResult compact = select_seeds(n, 8, samples);
  SelectionResult dual = select_seeds_hypergraph(n, 8, hypergraph);
  EXPECT_EQ(compact.seeds, dual.seeds);
  EXPECT_EQ(compact.covered_samples, dual.covered_samples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphEquivalence,
                         ::testing::Values(5, 6, 7, 8));

// --- cross-variant determinism ------------------------------------------------------

/// Runs every selection variant on the same samples and demands bit-identical
/// seed sequences: one greedy max-coverage definition, the Algorithm 4
/// kernel over every source at every thread count, and two more variants.
void expect_all_variants_agree(vertex_t n, std::uint32_t k,
                               const std::vector<RRRSet> &samples) {
  SelectionResult reference = select_seeds(n, k, samples);

  FlatRRRCollection flat;
  CompressedRRRCollection compressed;
  for (const RRRSet &sample : samples) {
    flat.append(sample);
    compressed.append(sample);
  }
  auto expect_kernel_agrees = [&](const auto &source, const char *name) {
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
      SelectionResult mt = select_seeds_multithreaded(n, k, source, threads);
      EXPECT_EQ(reference.seeds, mt.seeds)
          << name << " threads=" << threads;
      EXPECT_EQ(reference.covered_samples, mt.covered_samples)
          << name << " threads=" << threads;
      EXPECT_EQ(reference.total_samples, mt.total_samples)
          << name << " threads=" << threads;
    }
  };
  expect_kernel_agrees(std::span<const RRRSet>(samples), "span");
  expect_kernel_agrees(flat, "flat");
  expect_kernel_agrees(compressed, "compressed");

  SelectionResult lazy = select_seeds_lazy(n, k, samples);
  EXPECT_EQ(reference.seeds, lazy.seeds);
  EXPECT_EQ(reference.covered_samples, lazy.covered_samples);

  HypergraphCollection hypergraph(n);
  for (const RRRSet &sample : samples) {
    RRRSet copy = sample;
    hypergraph.add(std::move(copy));
  }
  SelectionResult dual = select_seeds_hypergraph(n, k, hypergraph);
  EXPECT_EQ(reference.seeds, dual.seeds);
  EXPECT_EQ(reference.covered_samples, dual.covered_samples);
}

TEST(SelectDeterminism, AllVariantsAgreeOnRandomFixtures) {
  for (std::uint64_t seed : {7u, 77u, 777u})
    expect_all_variants_agree(120, 9, random_samples(120, 360, 8, seed));
}

TEST(SelectDeterminism, AllVariantsAgreeOnTies) {
  // Every round is a tie on purpose: vertices 2/5 and then 3/8 have equal
  // counters, so any variant that does not break ties to the smallest id
  // (or lets thread interleaving pick the winner) diverges here.
  std::vector<RRRSet> samples = {{2, 5}, {2, 5}, {3, 8}, {3, 8}};
  expect_all_variants_agree(10, 4, samples);
}

TEST(SelectDeterminism, AllVariantsAgreeOnZeroCoverageTail) {
  // k exceeds the number of useful picks; the zero-counter fallback order
  // must also match across variants.
  std::vector<RRRSet> samples = {{4}, {4}, {6}};
  expect_all_variants_agree(9, 5, samples);
}

// --- the kernel's transient vertex -> sample index -------------------------------

/// Samples with the given sizes (0 allowed), members drawn from [0, used):
/// the vertices in [used, n) are in no sample.
std::vector<RRRSet> sized_samples(const std::vector<std::size_t> &sizes,
                                  vertex_t used, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<RRRSet> samples(sizes.size());
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    RRRSet &sample = samples[j];
    while (sample.size() < sizes[j]) {
      auto v = static_cast<vertex_t>(uniform_index(rng, used));
      if (std::find(sample.begin(), sample.end(), v) == sample.end())
        sample.push_back(v);
    }
    std::sort(sample.begin(), sample.end());
  }
  return samples;
}

/// Bytes of vertex -> sample index one run of \p select built, read off
/// `imm.select.index_bytes`: 0 when the kernel scanned.
template <class Select> std::uint64_t index_bytes_of(Select &&select) {
  metrics::Counter &counter =
      metrics::Registry::instance().counter("imm.select.index_bytes");
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  const std::uint64_t before = counter.value();
  select();
  metrics::set_enabled(was_enabled);
  return counter.value() - before;
}

/// The index costs 4 B per vertex (plus one) and 4 B per association.
std::uint64_t expected_index_bytes(vertex_t n,
                                   const std::vector<RRRSet> &samples) {
  std::uint64_t associations = 0;
  for (const RRRSet &sample : samples) associations += sample.size();
  return 4 * (std::uint64_t{n} + 1 + associations);
}

/// Runs the kernel over the vector, span and flat sources at 1/2/4/8
/// threads: every run must match sequential select_seeds and take the path
/// the rule names (\p indexed: k x samples > associations).
void expect_both_paths_agree(vertex_t n, std::uint32_t k,
                             const std::vector<RRRSet> &samples,
                             bool indexed) {
  const SelectionResult reference = select_seeds(n, k, samples);
  FlatRRRCollection flat;
  for (const RRRSet &sample : samples) flat.append(sample);
  const std::uint64_t bytes = indexed ? expected_index_bytes(n, samples) : 0;
  auto expect_source = [&](const auto &source, const char *name) {
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      SelectionResult mt;
      EXPECT_EQ(index_bytes_of([&] {
                  mt = select_seeds_multithreaded(n, k, source, threads);
                }),
                bytes)
          << name << " threads=" << threads;
      EXPECT_EQ(mt.seeds, reference.seeds) << name << " threads=" << threads;
      EXPECT_EQ(mt.covered_samples, reference.covered_samples)
          << name << " threads=" << threads;
      EXPECT_EQ(mt.total_samples, reference.total_samples)
          << name << " threads=" << threads;
    }
  };
  expect_source(samples, "vector");
  expect_source(std::span<const RRRSet>(samples), "span");
  expect_source(flat, "flat");
}

TEST(SelectIndex, TinySamplesTakeTheIndex) {
  // 600 samples of 0-3 members over 40 of 64 vertices, k = 12: the scan
  // would cost 7200 sample tests against ~1000 associations.  k exceeds
  // the useful picks, so the late rounds select zero-counter vertices.
  std::vector<std::size_t> sizes(600);
  for (std::size_t j = 0; j < sizes.size(); ++j) sizes[j] = j % 4;
  expect_both_paths_agree(64, 12, sized_samples(sizes, 40, 5), true);
  // Every vertex in one sample, most vertices in none, k near n.
  expect_both_paths_agree(30, 25, {{0, 1, 2, 3}, {}, {2}, {}, {7}}, true);
}

TEST(SelectIndex, GiantSamplesKeepTheScan) {
  // 40 samples of up to 150 members over 200 vertices, k = 8: 320 sample
  // tests against ~3000 associations.
  std::vector<std::size_t> sizes(40);
  for (std::size_t j = 0; j < sizes.size(); ++j) sizes[j] = 30 + 3 * j;
  expect_both_paths_agree(200, 8, sized_samples(sizes, 200, 6), false);
}

TEST(SelectIndex, TheRuleIsStrictAtKTimesSamplesEqualsAssociations) {
  // Sizes alternate 0 and 2k, so associations == k x samples exactly: the
  // scan costs no more than the index holds, and the kernel scans.  One
  // association fewer tips the rule to the index.
  const std::uint32_t k = 6;
  std::vector<std::size_t> sizes(300);
  for (std::size_t j = 0; j < sizes.size(); ++j) sizes[j] = j % 2 ? 2 * k : 0;
  expect_both_paths_agree(90, k, sized_samples(sizes, 80, 7), false);
  sizes.back() -= 1;
  expect_both_paths_agree(90, k, sized_samples(sizes, 80, 7), true);
}

TEST(SelectIndex, RandomFixturesMatchAtEveryThreadCount) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const std::vector<RRRSet> samples = random_samples(150, 400, 6, seed);
    // ~1400 associations: k = 10 indexes (4000 tests), k = 2 scans (800).
    expect_both_paths_agree(150, 10, samples, true);
    expect_both_paths_agree(150, 2, samples, false);
  }
}

TEST(SelectIndex, CompressedSourceNeverIndexes) {
  std::vector<std::size_t> sizes(500);
  for (std::size_t j = 0; j < sizes.size(); ++j) sizes[j] = 1 + j % 3;
  const std::vector<RRRSet> samples = sized_samples(sizes, 50, 8);
  CompressedRRRCollection compressed;
  for (const RRRSet &sample : samples) compressed.append(sample);
  const SelectionResult reference = select_seeds(60, 10, samples);
  for (unsigned threads : {1u, 4u}) {
    SelectionResult mt;
    EXPECT_EQ(index_bytes_of([&] {
                mt = select_seeds_multithreaded(60, 10, compressed, threads);
              }),
              0u);
    EXPECT_EQ(mt.seeds, reference.seeds);
    EXPECT_EQ(mt.covered_samples, reference.covered_samples);
  }
}

TEST(SelectIndex, AMemoryBudgetKeepsTheScan) {
  // The budget cannot see the index, so a budgeted run scans — and returns
  // the same seeds as the indexed run on the same input.
  std::vector<std::size_t> sizes(800);
  for (std::size_t j = 0; j < sizes.size(); ++j) sizes[j] = j % 5;
  const std::vector<RRRSet> samples = sized_samples(sizes, 70, 9);
  MemoryTracker &tracker = MemoryTracker::instance();
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SelectionResult indexed, budgeted;
    EXPECT_EQ(index_bytes_of([&] {
                indexed = select_seeds_multithreaded(80, 16, samples, threads);
              }),
              expected_index_bytes(80, samples));
    tracker.set_budget(std::size_t{1} << 40);
    EXPECT_EQ(index_bytes_of([&] {
                budgeted =
                    select_seeds_multithreaded(80, 16, samples, threads);
              }),
              0u);
    tracker.set_budget(0);
    EXPECT_EQ(budgeted.seeds, indexed.seeds) << "threads=" << threads;
    EXPECT_EQ(budgeted.covered_samples, indexed.covered_samples);
  }
}

TEST(SelectIndex, TheTrackerCountsTheIndexWhileItLives) {
  std::vector<std::size_t> sizes(400);
  for (std::size_t j = 0; j < sizes.size(); ++j) sizes[j] = 1 + j % 3;
  const std::vector<RRRSet> samples = sized_samples(sizes, 40, 10);
  MemoryTracker &tracker = MemoryTracker::instance();
  const std::size_t live = tracker.live_bytes();
  (void)select_seeds_multithreaded(40, 8, samples, 2);
  EXPECT_EQ(tracker.live_bytes(), live);
  EXPECT_GE(tracker.peak_bytes(), live + expected_index_bytes(40, samples));
}

// --- building blocks ----------------------------------------------------------------

TEST(CountMemberships, CountsEveryAssociation) {
  std::vector<RRRSet> samples = {{0, 1, 2}, {1, 2}, {2}};
  std::vector<std::uint32_t> counters(4, 0);
  count_memberships(samples, counters);
  EXPECT_EQ(counters[0], 1u);
  EXPECT_EQ(counters[1], 2u);
  EXPECT_EQ(counters[2], 3u);
  EXPECT_EQ(counters[3], 0u);
}

TEST(RetireSamples, DecrementsAndMarks) {
  std::vector<RRRSet> samples = {{0, 1}, {1, 2}, {2, 3}};
  std::vector<std::uint32_t> counters(4, 0);
  count_memberships(samples, counters);
  std::vector<std::uint8_t> retired(3, 0);
  std::uint64_t count = retire_samples_containing(1, samples, counters, retired);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(retired[0], 1);
  EXPECT_EQ(retired[1], 1);
  EXPECT_EQ(retired[2], 0);
  EXPECT_EQ(counters[0], 0u);
  EXPECT_EQ(counters[1], 0u);
  EXPECT_EQ(counters[2], 1u); // only sample {2,3} still counts it
}

TEST(RetireSamples, SkipsAlreadyRetired) {
  std::vector<RRRSet> samples = {{0, 1}};
  std::vector<std::uint32_t> counters(2, 0);
  count_memberships(samples, counters);
  std::vector<std::uint8_t> retired(1, 0);
  EXPECT_EQ(retire_samples_containing(0, samples, counters, retired), 1u);
  EXPECT_EQ(retire_samples_containing(1, samples, counters, retired), 0u);
}

TEST(RetireSamples, EverySourceAgreesWithAndWithoutTheDecrementLog) {
  // Same counters, retirement flags and coverage from every source, and
  // the log only records: the counters it leaves match an unlogged run,
  // and every source logs the same decrements in the same order.
  const vertex_t n = 90;
  const std::vector<RRRSet> samples = random_samples(n, 300, 9, 4242);
  FlatRRRCollection flat;
  CompressedRRRCollection compressed;
  for (const RRRSet &sample : samples) {
    flat.append(sample);
    compressed.append(sample);
  }
  struct Run {
    std::vector<std::uint32_t> counters;
    std::vector<std::uint8_t> retired;
    std::vector<std::uint64_t> covered;
    DecrementLog log;
  };
  auto run = [&](const auto &source, bool logged) {
    Run r{std::vector<std::uint32_t>(n, 0),
          std::vector<std::uint8_t>(samples.size(), 0),
          {},
          {std::vector<std::uint32_t>(n, 0), {}}};
    count_memberships(source, r.counters);
    for (vertex_t seed : {vertex_t{3}, vertex_t{41}, vertex_t{3}, vertex_t{77}})
      r.covered.push_back(retire_samples_containing(
          seed, source, r.counters, r.retired, logged ? &r.log : nullptr));
    return r;
  };
  for (bool logged : {false, true}) {
    const Run plain = run(samples, logged);
    EXPECT_EQ(plain.covered[2], 0u) << "a seed retires its samples once";
    for (const Run &other :
         {run(std::span<const RRRSet>(samples), logged), run(flat, logged),
          run(compressed, logged)}) {
      EXPECT_EQ(other.counters, plain.counters) << "logged=" << logged;
      EXPECT_EQ(other.retired, plain.retired) << "logged=" << logged;
      EXPECT_EQ(other.covered, plain.covered) << "logged=" << logged;
      EXPECT_EQ(other.log.pending, plain.log.pending) << "logged=" << logged;
      EXPECT_EQ(other.log.touched, plain.log.touched) << "logged=" << logged;
    }
  }
  const Run unlogged = run(samples, false);
  const Run logged = run(samples, true);
  EXPECT_EQ(logged.counters, unlogged.counters);
  EXPECT_TRUE(unlogged.log.touched.empty());
  ASSERT_FALSE(logged.log.touched.empty());
  // Each logged vertex appears once in `touched`, and `pending` sums to the
  // total decrement: the counts before minus the counts after.
  std::vector<std::uint32_t> before(n, 0);
  count_memberships(samples, before);
  std::vector<vertex_t> touched = logged.log.touched;
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(std::adjacent_find(touched.begin(), touched.end()), touched.end());
  for (vertex_t v = 0; v < n; ++v)
    EXPECT_EQ(logged.log.pending[v], before[v] - logged.counters[v]) << v;
}

TEST(ArgmaxCounter, SkipsSelectedAndBreaksTiesLow) {
  std::vector<std::uint32_t> counters{5, 9, 9, 2};
  std::vector<std::uint8_t> selected{0, 0, 0, 0};
  EXPECT_EQ(argmax_counter(counters, selected), 1u);
  selected[1] = 1;
  EXPECT_EQ(argmax_counter(counters, selected), 2u);
  selected[2] = 1;
  EXPECT_EQ(argmax_counter(counters, selected), 0u);
}

TEST(ArgmaxCounter, AllZeroReturnsSmallestUnselected) {
  std::vector<std::uint32_t> counters{0, 0, 0};
  std::vector<std::uint8_t> selected{1, 0, 0};
  EXPECT_EQ(argmax_counter(counters, selected), 1u);
}

} // namespace
} // namespace ripples
