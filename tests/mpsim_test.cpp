// Tests for the mpsim message-passing runtime: every collective must match
// MPI semantics for all rank counts, datatypes, and buffer shapes the
// distributed IMM implementation uses.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mpsim/communicator.hpp"

namespace ripples::mpsim {
namespace {

class MpsimRankCounts : public ::testing::TestWithParam<int> {};

TEST_P(MpsimRankCounts, RunExecutesEveryRankExactlyOnce) {
  const int p = GetParam();
  std::vector<std::atomic<int>> visits(p);
  Context::run(p, [&](Communicator &comm) {
    EXPECT_EQ(comm.size(), p);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), p);
    visits[static_cast<std::size_t>(comm.rank())].fetch_add(1);
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(visits[static_cast<std::size_t>(r)].load(), 1);
}

TEST_P(MpsimRankCounts, AllreduceSumMatchesSequentialReduction) {
  const int p = GetParam();
  const std::size_t len = 1000;
  Context::run(p, [&](Communicator &comm) {
    // rank r contributes value (r+1) * (i+1) at index i.
    std::vector<std::uint32_t> buffer(len);
    for (std::size_t i = 0; i < len; ++i)
      buffer[i] = static_cast<std::uint32_t>((comm.rank() + 1) * (i + 1));
    comm.allreduce(std::span<std::uint32_t>(buffer), ReduceOp::Sum);
    const std::uint32_t rank_sum = static_cast<std::uint32_t>(p * (p + 1) / 2);
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_EQ(buffer[i], rank_sum * (i + 1)) << "index " << i;
  });
}

TEST_P(MpsimRankCounts, AllreduceMaxAndMin) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::int64_t> buffer{comm.rank(), -comm.rank()};
    comm.allreduce(std::span<std::int64_t>(buffer), ReduceOp::Max);
    EXPECT_EQ(buffer[0], p - 1);
    EXPECT_EQ(buffer[1], 0);

    std::vector<std::int64_t> buffer2{comm.rank(), -comm.rank()};
    comm.allreduce(std::span<std::int64_t>(buffer2), ReduceOp::Min);
    EXPECT_EQ(buffer2[0], 0);
    EXPECT_EQ(buffer2[1], -(p - 1));
  });
}

TEST_P(MpsimRankCounts, BroadcastCopiesRootBuffer) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<double> buffer(64, static_cast<double>(comm.rank()));
    if (comm.rank() == 0)
      for (std::size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = 3.5 * static_cast<double>(i);
    comm.broadcast(std::span<double>(buffer), 0);
    for (std::size_t i = 0; i < buffer.size(); ++i)
      ASSERT_DOUBLE_EQ(buffer[i], 3.5 * static_cast<double>(i));
  });
}

TEST_P(MpsimRankCounts, AllgatherOrdersByRank) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    std::vector<std::uint64_t> gathered =
        comm.allgather(static_cast<std::uint64_t>(comm.rank() * 10));
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(gathered[static_cast<std::size_t>(r)],
                static_cast<std::uint64_t>(r * 10));
  });
}

TEST_P(MpsimRankCounts, AllgathervConcatenatesVariableLengths) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    // rank r contributes r entries: r, r, ..., so the concatenation is
    // 1x"1", 2x"2", ... in rank order (rank 0 contributes nothing).
    std::vector<std::uint32_t> local(static_cast<std::size_t>(comm.rank()),
                                     static_cast<std::uint32_t>(comm.rank()));
    std::vector<std::uint32_t> all =
        comm.allgatherv(std::span<const std::uint32_t>(local));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p * (p - 1) / 2));
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r)
      for (int j = 0; j < r; ++j)
        EXPECT_EQ(all[offset++], static_cast<std::uint32_t>(r));
  });
}

TEST_P(MpsimRankCounts, AllgathervRanksPreservesPerRankSections) {
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    // Same payload as the flat test above, but the per-rank boundaries must
    // survive: section r holds exactly rank r's r copies of "r".
    std::vector<std::uint32_t> local(static_cast<std::size_t>(comm.rank()),
                                     static_cast<std::uint32_t>(comm.rank()));
    std::vector<std::vector<std::uint32_t>> sections =
        comm.allgatherv_ranks(std::span<const std::uint32_t>(local));
    ASSERT_EQ(sections.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto &section = sections[static_cast<std::size_t>(r)];
      ASSERT_EQ(section.size(), static_cast<std::size_t>(r));
      for (std::uint32_t value : section)
        EXPECT_EQ(value, static_cast<std::uint32_t>(r));
    }
  });
}

TEST(Mpsim, AllgathervRanksCarriesStructs) {
  struct Pair {
    std::uint32_t a;
    std::uint32_t b;
  };
  Context::run(3, [&](Communicator &comm) {
    const auto me = static_cast<std::uint32_t>(comm.rank());
    std::vector<Pair> local(1, Pair{me, me * 100});
    if (comm.rank() == 1) local.clear(); // empty sections stay empty
    std::vector<std::vector<Pair>> sections =
        comm.allgatherv_ranks(std::span<const Pair>(local));
    ASSERT_EQ(sections.size(), 3u);
    EXPECT_TRUE(sections[1].empty());
    for (std::uint32_t r : {0u, 2u}) {
      ASSERT_EQ(sections[r].size(), 1u);
      EXPECT_EQ(sections[r][0].a, r);
      EXPECT_EQ(sections[r][0].b, r * 100);
    }
  });
}

TEST_P(MpsimRankCounts, CollectiveSequencesStayInLockstep) {
  // Mixed sequence of collectives: any pointer/slot reuse bug would corrupt
  // the later results.
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<std::uint32_t> ones(17, 1);
      comm.allreduce(std::span<std::uint32_t>(ones), ReduceOp::Sum);
      ASSERT_EQ(ones[0], static_cast<std::uint32_t>(p));

      std::vector<std::uint32_t> value{static_cast<std::uint32_t>(round)};
      comm.broadcast(std::span<std::uint32_t>(value), round % p);
      ASSERT_EQ(value[0], static_cast<std::uint32_t>(round));

      comm.barrier();
      auto gathered = comm.allgather(comm.rank());
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
    }
  });
}

TEST_P(MpsimRankCounts, BroadcastFromEveryRootReachesEveryRank) {
  // The drivers broadcast from rank 0 only today; the collective itself
  // takes any root, so every root must reach every rank, in lockstep.
  const int p = GetParam();
  Context::run(p, [&](Communicator &comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::uint64_t> buffer(9, static_cast<std::uint64_t>(comm.rank()));
      if (comm.rank() == root)
        for (std::size_t i = 0; i < buffer.size(); ++i)
          buffer[i] = static_cast<std::uint64_t>(1000 * root) + i;
      comm.broadcast(std::span<std::uint64_t>(buffer), root);
      for (std::size_t i = 0; i < buffer.size(); ++i)
        ASSERT_EQ(buffer[i], static_cast<std::uint64_t>(1000 * root) + i)
            << "root " << root << ", index " << i;
    }
  });
}

TEST_P(MpsimRankCounts, AllreduceSumOfDoublesIsTheRankOrderSumBitForBit) {
  // Whichever rank reduces a slice, it sums the contributions in dense rank
  // order, so floating-point results are bit-identical to a sequential
  // rank-order sum on every rank — the determinism the drivers rely on.
  const int p = GetParam();
  const std::size_t len = 257;
  auto contribution = [](int rank, std::size_t i) {
    return 0.1 * static_cast<double>(rank + 1) / static_cast<double>(i + 3) +
           (rank % 2 == 0 ? 1e8 : -1e8);
  };
  Context::run(p, [&](Communicator &comm) {
    std::vector<double> buffer(len);
    for (std::size_t i = 0; i < len; ++i)
      buffer[i] = contribution(comm.rank(), i);
    comm.allreduce(std::span<double>(buffer), ReduceOp::Sum);
    for (std::size_t i = 0; i < len; ++i) {
      double expected = contribution(0, i);
      for (int r = 1; r < p; ++r) expected += contribution(r, i);
      ASSERT_EQ(buffer[i], expected) << "index " << i;
    }
  });
}

TEST_P(MpsimRankCounts, AllgathervCarriesLargePayloadsIntact) {
  // Payloads far larger than any header: every rank contributes its own
  // length, so an offset or length mix-up shows as a misplaced value.
  const int p = GetParam();
  const std::size_t base = 1 << 13;
  Context::run(p, [&](Communicator &comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    std::vector<double> local(base + me);
    for (std::size_t i = 0; i < local.size(); ++i)
      local[i] = static_cast<double>(me) + 0.5 * static_cast<double>(i);
    std::vector<std::vector<double>> sections =
        comm.allgatherv_ranks(std::span<const double>(local));
    ASSERT_EQ(sections.size(), static_cast<std::size_t>(p));
    for (std::size_t r = 0; r < sections.size(); ++r) {
      ASSERT_EQ(sections[r].size(), base + r);
      for (std::size_t i = 0; i < sections[r].size(); i += 511)
        ASSERT_EQ(sections[r][i],
                  static_cast<double>(r) + 0.5 * static_cast<double>(i));
      ASSERT_EQ(sections[r].back(), static_cast<double>(r) +
                                        0.5 * static_cast<double>(base + r - 1));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MpsimRankCounts,
                         ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(Mpsim, EmptyBuffersAreLegal) {
  Context::run(4, [&](Communicator &comm) {
    std::vector<std::uint32_t> empty;
    comm.allreduce(std::span<std::uint32_t>(empty), ReduceOp::Sum);
    std::vector<std::uint32_t> gathered =
        comm.allgatherv(std::span<const std::uint32_t>(empty));
    EXPECT_TRUE(gathered.empty());
  });
}

TEST(Mpsim, SingleRankAllreduceIsIdentity) {
  Context::run(1, [&](Communicator &comm) {
    std::vector<std::uint32_t> buffer{5, 6, 7};
    comm.allreduce(std::span<std::uint32_t>(buffer), ReduceOp::Sum);
    EXPECT_EQ(buffer, (std::vector<std::uint32_t>{5, 6, 7}));
  });
}

TEST(Mpsim, LargeRankCountCompletes) {
  // The Edison experiments simulate up to 1024 ranks; make sure the runtime
  // scales to large teams.  128 here keeps test time low.
  std::atomic<int> total{0};
  Context::run(128, [&](Communicator &comm) {
    auto gathered = comm.allgather(1);
    total.fetch_add(static_cast<int>(gathered.size()));
  });
  EXPECT_EQ(total.load(), 128 * 128);
}

TEST(Mpsim, ThrowingRankUnblocksPeersInAllreduce) {
  // The deadlock this guards against: rank 1 throws before joining the
  // collective while ranks 0, 2, 3 wait inside allreduce forever.  The
  // abort protocol must unwind the waiters and surface the original error.
  EXPECT_THROW(
      Context::run(4,
                   [](Communicator &comm) {
                     if (comm.rank() == 1)
                       throw std::runtime_error("rank 1 failure");
                     std::vector<std::uint32_t> ones(8, 1);
                     comm.allreduce(std::span<std::uint32_t>(ones),
                                    ReduceOp::Sum);
                   }),
      std::runtime_error);
}

TEST(Mpsim, ThrowingRankUnblocksPeersInBarrier) {
  EXPECT_THROW(Context::run(3,
                            [](Communicator &comm) {
                              if (comm.rank() == 2)
                                throw std::logic_error("rank 2 failure");
                              comm.barrier();
                            }),
               std::logic_error);
}

TEST(Mpsim, ThrowingRankUnblocksPeersInAllgatherv) {
  // The sparse selection exchange's collective: a peer that throws instead
  // of contributing its section must wake the ranks waiting for it.
  EXPECT_THROW(Context::run(3,
                            [](Communicator &comm) {
                              if (comm.rank() == 0)
                                throw std::runtime_error("rank 0 failure");
                              std::vector<std::uint32_t> local(5, 1);
                              (void)comm.allgatherv_ranks(
                                  std::span<const std::uint32_t>(local));
                            }),
               std::runtime_error);
}

TEST(Mpsim, ThrowingRootUnblocksPeersInBroadcast) {
  // Every non-root waits for the root's buffer; the root's failure must
  // wake them.
  EXPECT_THROW(Context::run(4,
                            [](Communicator &comm) {
                              if (comm.rank() == 2)
                                throw std::runtime_error("root died");
                              std::vector<std::uint32_t> buffer(3, 0);
                              comm.broadcast(std::span<std::uint32_t>(buffer), 2);
                            }),
               std::runtime_error);
}

TEST(Mpsim, AbortDuringLaterRoundStillPropagates) {
  // Exercise the generation logic: several successful collectives, then a
  // mid-computation failure with peers already waiting in the next round.
  EXPECT_THROW(Context::run(4,
                            [](Communicator &comm) {
                              for (int round = 0; round < 3; ++round) {
                                std::vector<std::uint32_t> ones(4, 1);
                                comm.allreduce(std::span<std::uint32_t>(ones),
                                               ReduceOp::Sum);
                              }
                              if (comm.rank() == 3)
                                throw std::runtime_error("late failure");
                              comm.barrier();
                            }),
               std::runtime_error);
}

TEST(Mpsim, CommStatsCountCollectivesWhenEnabled) {
  metrics::set_enabled(true);
  const CommStatsSnapshot before = comm_stats();
  Context::run(3, [](Communicator &comm) {
    std::vector<std::uint32_t> ones(10, 1);
    comm.allreduce(std::span<std::uint32_t>(ones), ReduceOp::Sum);
    comm.barrier();
  });
  const CommStatsSnapshot delta = comm_stats().since(before);
  metrics::set_enabled(false);

  const auto allreduce = static_cast<std::size_t>(Collective::Allreduce);
  const auto barrier = static_cast<std::size_t>(Collective::Barrier);
  EXPECT_EQ(delta.calls[allreduce], 3u);
  EXPECT_EQ(delta.bytes[allreduce], 3u * 10 * sizeof(std::uint32_t));
  EXPECT_EQ(delta.calls[barrier], 3u);
  EXPECT_EQ(delta.bytes[barrier], 0u);
}

TEST(Mpsim, CommStatsStayZeroWhenDisabled) {
  metrics::set_enabled(false);
  const CommStatsSnapshot before = comm_stats();
  Context::run(2, [](Communicator &comm) {
    std::vector<std::uint32_t> ones(10, 1);
    comm.allreduce(std::span<std::uint32_t>(ones), ReduceOp::Sum);
  });
  const CommStatsSnapshot delta = comm_stats().since(before);
  for (std::size_t c = 0; c < kNumCollectives; ++c) {
    EXPECT_EQ(delta.calls[c], 0u) << to_string(static_cast<Collective>(c));
    EXPECT_EQ(delta.bytes[c], 0u) << to_string(static_cast<Collective>(c));
  }
}

TEST(Mpsim, ExceptionInSingleRankRunPropagates) {
  EXPECT_THROW(Context::run(1,
                            [](Communicator &) {
                              throw std::runtime_error("rank failure");
                            }),
               std::runtime_error);
}

TEST(Mpsim, SymmetricExceptionsPropagateFirst) {
  EXPECT_THROW(Context::run(4,
                            [](Communicator &) {
                              throw std::runtime_error("all ranks fail");
                            }),
               std::runtime_error);
}

} // namespace
} // namespace ripples::mpsim
