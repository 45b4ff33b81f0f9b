// The async ingest subsystem: IngestQueue policy contracts (deterministic,
// queue-level — no consumer running), Flush()'s happens-before barrier,
// bitwise equivalence of async churn + Flush against the reference store
// (tests/reference_store.h) across shard counts, concurrent producers + snapshot readers
// (the TSan target), publish on read (owner threads never publish; the
// first gather after Flush does, once), the "ingest.queue" memory
// accounting, a memory budget that holds with no reader at all, the
// builder/facade doors, and cube queries that never see a stale
// maintained cube after Flush, even with concurrent readers.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "equivalence_harness.h"
#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "regcube/core/ingest_queue.h"
#include "regcube/core/sharded_engine.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnPlan;
using equivalence::ChurnWorkload;
using equivalence::ExpectCubesIdentical;
using equivalence::ExpectGathersIdentical;
using equivalence::FreshKeyOutside;
using equivalence::Key2;
using equivalence::RunChurnRounds;
using testing_util::ReferenceStore;

StreamTuple Tuple(ValueId a, ValueId b, TimeTick tick, double value) {
  return {Key2(a, b), tick, value};
}

std::vector<StreamTuple> SequentialTuples(std::int64_t n, TimeTick tick) {
  std::vector<StreamTuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    tuples.push_back(Tuple(static_cast<ValueId>(i % 4),
                           static_cast<ValueId>(i / 4), tick,
                           static_cast<double>(i)));
  }
  return tuples;
}

// ---------------------------------------------------------------- queue unit

// With no consumer attached the queue's state machine is deterministic:
// these pin the exact per-policy contracts.

TEST(IngestQueueTest, RejectRefusesOverflowWithResourceExhausted) {
  IngestQueue queue(4, BackpressurePolicy::kReject);
  auto tuples = SequentialTuples(6, 3);
  const IngestTicket ticket = queue.Enqueue(tuples.data(), 6);
  EXPECT_EQ(ticket.attempted, 6);
  EXPECT_EQ(ticket.enqueued, 4);
  EXPECT_EQ(ticket.rejected, 2);
  EXPECT_EQ(ticket.dropped, 0);
  EXPECT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status.code(), StatusCode::kResourceExhausted);

  const ShardIngestStats stats = queue.Stats();
  EXPECT_EQ(stats.depth, 4);
  EXPECT_EQ(stats.enqueued, 4);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.high_water, 4);
}

TEST(IngestQueueTest, DropOldestEvictsFromTheHead) {
  IngestQueue queue(4, BackpressurePolicy::kDropOldest);
  auto tuples = SequentialTuples(6, 3);
  const IngestTicket ticket = queue.Enqueue(tuples.data(), 6);
  EXPECT_TRUE(ticket.ok());
  EXPECT_EQ(ticket.enqueued, 6);
  EXPECT_EQ(ticket.dropped, 2);
  EXPECT_EQ(ticket.rejected, 0);

  // The survivors are the *newest* four, still in FIFO order.
  // (SequentialTuples numbers values 0..5; Enqueue consumed the buffer,
  // so compare against the generator, not the moved-from tuples.)
  std::vector<StreamTuple> drained;
  EXPECT_EQ(queue.PopAll(&drained), 4);
  ASSERT_EQ(drained.size(), 4u);
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].value, static_cast<double>(i + 2)) << "slot " << i;
  }
  EXPECT_EQ(queue.Stats().dropped, 2);
}

TEST(IngestQueueTest, DroppedTuplesResolveTheFlushBarrier) {
  IngestQueue queue(4, BackpressurePolicy::kDropOldest);
  auto tuples = SequentialTuples(6, 3);
  queue.Enqueue(tuples.data(), 6);
  const std::uint64_t target = queue.enqueued_seq();
  EXPECT_EQ(target, 6u);

  std::vector<StreamTuple> drained;
  queue.PopAll(&drained);
  queue.MarkAbsorbed(4, 4, Status::OK());
  // 4 absorbed + 2 dropped = 6 resolved: returns without blocking.
  queue.WaitResolved(target);
  EXPECT_EQ(queue.Stats().absorbed, 4);
}

TEST(IngestQueueTest, MarkAbsorbedRecordsTheFirstErrorOnce) {
  IngestQueue queue(8, BackpressurePolicy::kBlock);
  auto tuples = SequentialTuples(4, 3);
  queue.Enqueue(tuples.data(), 4);
  std::vector<StreamTuple> drained;
  queue.PopAll(&drained);
  queue.MarkAbsorbed(4, 3, Status::InvalidArgument("late tuple"));

  EXPECT_EQ(queue.Stats().absorb_errors, 1);
  const Status first = queue.TakeFirstError();
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(queue.TakeFirstError().ok());  // cleared on read
}

TEST(IngestQueueTest, CloseRejectsProducersAndDrainsConsumers) {
  IngestQueue queue(4, BackpressurePolicy::kBlock);
  auto tuples = SequentialTuples(2, 3);
  queue.Enqueue(tuples.data(), 2);
  queue.Close();

  const IngestTicket late = queue.Enqueue(tuples.data(), 2);
  EXPECT_EQ(late.enqueued, 0);
  EXPECT_EQ(late.rejected, 2);
  EXPECT_EQ(late.status.code(), StatusCode::kFailedPrecondition);

  // The consumer still drains what was accepted, then sees the exit
  // signal.
  std::vector<StreamTuple> drained;
  EXPECT_EQ(queue.PopAll(&drained), 2);
  queue.MarkAbsorbed(2, 2, Status::OK());
  EXPECT_EQ(queue.PopAll(&drained), 0);
}

TEST(IngestQueueTest, BlockedProducerResumesWhenTheConsumerDrains) {
  IngestQueue queue(2, BackpressurePolicy::kBlock);
  auto tuples = SequentialTuples(6, 3);
  std::atomic<bool> enqueue_done{false};
  std::thread producer([&] {
    const IngestTicket ticket = queue.Enqueue(tuples.data(), 6);
    EXPECT_TRUE(ticket.ok());
    EXPECT_EQ(ticket.enqueued, 6);
    enqueue_done.store(true);
  });
  // Drain until all six came through; each PopAll frees capacity and
  // wakes the blocked producer.
  std::int64_t drained_total = 0;
  std::vector<StreamTuple> drained;
  while (drained_total < 6) {
    drained.clear();
    const std::int64_t n = queue.PopAll(&drained);
    ASSERT_GT(n, 0);
    queue.MarkAbsorbed(n, n, Status::OK());
    drained_total += n;
  }
  producer.join();
  EXPECT_TRUE(enqueue_done.load());
  EXPECT_EQ(queue.Stats().absorbed, 6);
  EXPECT_GE(queue.Stats().blocked, 1);
}

// ----------------------------------------------------------- churn oracle

IngestConfig AsyncConfig(std::int64_t capacity = 64) {
  IngestConfig config;
  config.mode = IngestMode::kAsync;
  config.queue_capacity = capacity;
  config.backpressure = BackpressurePolicy::kBlock;
  return config;
}

// The tentpole equivalence claim: the same seeded churn (writes, open-slot
// ticks, a structural fresh cell, periodic seals) driven through the async
// queues lands the bit-identical engine state the synchronous path
// produces, for every shard count. A tiny queue capacity forces plenty of
// kBlock waits along the way.
TEST(AsyncIngestEquivalence, ChurnPlusFlushMatchesSyncAcrossShardCounts) {
  const auto spec = ChurnWorkload(60, 12, 77);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  ChurnPlan plan;
  plan.rounds = 8;
  plan.seed = 19;
  plan.max_dirty_per_round = 30;
  plan.base_tick = 7;
  plan.advance_ticks = true;
  plan.seal_every = 3;
  plan.fresh_round = 4;
  plan.fresh_key = FreshKeyOutside(gen, 4);

  ReferenceStore oracle(*schema, ChurnEngineOptions());
  std::vector<ShardedStreamEngine::GatheredCells> want;
  RunChurnRounds(oracle, gen.cells(), plan,
                 [&](int) { want.push_back(oracle.Gather()); });
  auto expected_cube = oracle.ComputeCube(0, 3);
  ASSERT_TRUE(expected_cube.ok()) << expected_cube.status().ToString();

  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards,
                               nullptr, AsyncConfig(/*capacity=*/8));
    RunChurnRounds(engine, gen.cells(), plan, [&](int round) {
      // Round barrier: everything this round accepted must be absorbed
      // (and any absorb error surfaced) before the next round's writes.
      // Gathering every round makes each later publish a patch of the
      // cells the owner threads absorbed since.
      ASSERT_TRUE(engine.Flush().ok());
      ExpectGathersIdentical(engine.GatherAlignedCells(),
                             want[static_cast<size_t>(round)], 2);
    });
    ASSERT_TRUE(engine.Flush().ok());

    auto cube = engine.ComputeCubeShared(0, 3);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*expected_cube, **cube);

    const auto stats = engine.IngestStats();
    EXPECT_EQ(stats.total.dropped, 0);
    EXPECT_EQ(stats.total.rejected, 0);
    EXPECT_EQ(stats.total.enqueued, stats.total.absorbed);
    EXPECT_EQ(static_cast<int>(stats.per_shard.size()), shards);
  }
}

// SealThrough in async mode drains first: tuples at ticks <= t queued at
// the moment of the call land before the seal instead of being refused as
// late.
TEST(AsyncIngestEquivalence, SealThroughDrainsQueuedTuplesFirst) {
  const auto spec = ChurnWorkload(20, 8, 31);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  ReferenceStore oracle(*schema, ChurnEngineOptions());
  ShardedStreamEngine async_engine(*schema, ChurnEngineOptions(), 2,
                                   nullptr, AsyncConfig());
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  ASSERT_TRUE(oracle.IngestBatch(stream).ok());
  ASSERT_TRUE(oracle.SealThrough(spec.series_length - 1).ok());
  // No explicit Flush: SealThrough itself must provide the barrier.
  ASSERT_TRUE(async_engine.IngestBatch(stream).ok());
  ASSERT_TRUE(async_engine.SealThrough(spec.series_length - 1).ok());

  ExpectGathersIdentical(async_engine.GatherAlignedCells(), oracle.Gather(),
                         2);
  EXPECT_EQ(async_engine.IngestStats().total.absorbed,
            static_cast<std::int64_t>(stream.size()));
}

// Flush surfaces the first shard-engine absorb error (a tuple sealed past
// is refused as late on the owner thread) exactly once, and the engine
// keeps serving.
TEST(AsyncIngestEquivalence, FlushSurfacesAbsorbErrorsOnce) {
  const auto spec = ChurnWorkload(20, 8, 47);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 2, nullptr,
                             AsyncConfig());
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  // This tuple's tick is already sealed; acceptance succeeds, absorption
  // fails on the owner thread.
  const StreamTuple late = {gen.cells().front().key, 0, 1.0};
  EXPECT_TRUE(engine.Ingest(late).ok());
  const Status flushed = engine.Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_TRUE(engine.Flush().ok());  // cleared once surfaced
  EXPECT_EQ(engine.IngestStats().total.absorb_errors, 1);
  EXPECT_GT(engine.num_cells(), 0);
}

// Engine-level policy invariants under a live consumer (exact counts are
// timing-dependent, the accounting identities are not): every attempted
// tuple ends in exactly one of absorbed / dropped / rejected.
TEST(AsyncIngestEquivalence, LossyPoliciesKeepTheAccountingIdentity) {
  const auto spec = ChurnWorkload(40, 8, 53);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  for (BackpressurePolicy policy : {BackpressurePolicy::kDropOldest,
                                    BackpressurePolicy::kReject}) {
    SCOPED_TRACE(BackpressurePolicyName(policy));
    IngestConfig config;
    config.mode = IngestMode::kAsync;
    config.queue_capacity = 4;  // tiny: the policy actually engages
    config.backpressure = policy;
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 2, nullptr,
                               config);
    const IngestTicket ticket = engine.IngestAsync(stream);
    ASSERT_TRUE(engine.Flush().ok());

    EXPECT_EQ(ticket.attempted, static_cast<std::int64_t>(stream.size()));
    EXPECT_EQ(ticket.enqueued + ticket.rejected, ticket.attempted);
    if (ticket.rejected > 0) {
      EXPECT_EQ(ticket.status.code(), StatusCode::kResourceExhausted);
    }
    const auto stats = engine.IngestStats();
    EXPECT_EQ(stats.total.absorbed + stats.total.dropped,
              stats.total.enqueued);
    EXPECT_EQ(stats.total.rejected, ticket.rejected);
    EXPECT_LE(stats.total.high_water, 4 * 2);  // capacity per shard
    EXPECT_EQ(stats.total.depth, 0);  // Flush drained everything
  }
}

// ------------------------------------------------------------- concurrency

// The TSan target: many producers enqueueing disjoint cell slices while a
// reader gathers and a Flush caller raises barriers — then the absorbed
// state must still be bit-identical to the reference store fed the same
// stream. Per-cell order is what matters, and each producer owns its
// cells, so the concurrent interleaving is immaterial.
TEST(AsyncIngestConcurrencyTest, ConcurrentProducersAndSnapshotReaders) {
  const auto spec = ChurnWorkload(48, 16, 61);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4, nullptr,
                             AsyncConfig(/*capacity=*/16));
  constexpr int kProducers = 4;
  std::atomic<bool> done{false};

  std::thread reader([&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto run = engine.GatherAlignedCells();
      ASSERT_NE(run.cells, nullptr);
      engine.num_cells();
    }
  });
  std::thread flusher([&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)engine.Flush();
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &stream, p] {
      std::vector<StreamTuple> chunk;
      for (const StreamTuple& t : stream) {
        if (t.key.Hash() % kProducers != static_cast<std::uint64_t>(p)) {
          continue;
        }
        chunk.push_back(t);
        if (chunk.size() == 7) {
          ASSERT_TRUE(engine.IngestAsync(chunk).ok());
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        ASSERT_TRUE(engine.IngestAsync(chunk).ok());
      }
    });
  }
  for (std::thread& p : producers) p.join();
  done.store(true, std::memory_order_release);
  reader.join();
  flusher.join();
  ASSERT_TRUE(engine.Flush().ok());

  ReferenceStore oracle(*schema, ChurnEngineOptions());
  ASSERT_TRUE(oracle.IngestBatch(stream).ok());
  ExpectGathersIdentical(engine.GatherAlignedCells(), oracle.Gather(), 2);
  EXPECT_EQ(engine.IngestStats().total.absorbed,
            static_cast<std::int64_t>(stream.size()));
}

// The publish-pointer contract under sustained churn: every snapshot a
// reader observes is a prefix-consistent published generation. A torn or
// half-published shard run would surface as a duplicated / out-of-order
// key after the merge; a stale-then-fresh mix would break revision, clock,
// or cell-count monotonicity (cells are never erased, so a reader's view
// may only grow). Readers spin on the delta gather — the read behind
// TakeSnapshot — while three writers push disjoint slices through the
// async queues; the final state must still match the reference store bit
// for bit.
TEST(AsyncIngestConcurrencyTest,
     PublishedGenerationsStayConsistentUnderChurn) {
  const auto spec = ChurnWorkload(48, 16, 71);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4, nullptr,
                             AsyncConfig(/*capacity=*/16));
  constexpr int kWriters = 3;
  std::atomic<bool> done{false};

  auto read_loop = [&engine, &done] {
    std::uint64_t last_revision = 0;
    TimeTick last_clock = 0;
    size_t last_size = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto run = engine.GatherAlignedCells();
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      ASSERT_NE(run.cells, nullptr);
      for (size_t i = 1; i < run.cells->size(); ++i) {
        ASSERT_TRUE(CanonicalKeyLess((*run.cells)[i - 1].key,
                                     (*run.cells)[i].key))
            << "published run not strictly sorted at index " << i;
      }
      ASSERT_GE(run.revision, last_revision);
      ASSERT_GE(run.clock, last_clock);
      ASSERT_GE(run.cells->size(), last_size);
      last_revision = run.revision;
      last_clock = run.clock;
      last_size = run.cells->size();
    }
  };
  std::thread reader_a(read_loop);
  std::thread reader_b(read_loop);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, &stream, w] {
      std::vector<StreamTuple> chunk;
      for (const StreamTuple& t : stream) {
        if (t.key.Hash() % kWriters != static_cast<std::uint64_t>(w)) {
          continue;
        }
        chunk.push_back(t);
        if (chunk.size() == 5) {
          ASSERT_TRUE(engine.IngestAsync(chunk).ok());
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        ASSERT_TRUE(engine.IngestAsync(chunk).ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(engine.Flush().ok());
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();

  ReferenceStore oracle(*schema, ChurnEngineOptions());
  ASSERT_TRUE(oracle.IngestBatch(stream).ok());
  ExpectGathersIdentical(engine.GatherAlignedCells(), oracle.Gather(), 2);
}

// Publish on read: owner threads only absorb, so the first gather after
// Flush() republishes every shard that changed (none is served from its
// previous publication), a second gather at the same revision folds the
// same publications again (every shard reused, no frame copied or
// replaced), and both match the reference store bit for bit.
TEST(AsyncIngestPublishTest, FirstGatherAfterFlushPublishesEveryShard) {
  const auto spec = ChurnWorkload(64, 8, 83);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();

  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    ReferenceStore oracle(*schema, ChurnEngineOptions());
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards,
                               nullptr, AsyncConfig(/*capacity=*/16));
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(round);
      // Every cell is written every round, so every shard changed.
      std::vector<StreamTuple> batch;
      for (const auto& cell : gen.cells()) {
        batch.push_back({cell.key, spec.series_length + round,
                         0.5 * static_cast<double>(round + 1)});
      }
      ASSERT_TRUE(engine.IngestAsync(batch).ok());
      ASSERT_TRUE(engine.Flush().ok());
      ASSERT_TRUE(oracle.IngestBatch(batch).ok());
      if (round % 3 == 2) {
        ASSERT_TRUE(engine.SealThrough(spec.series_length + round).ok());
        ASSERT_TRUE(oracle.SealThrough(spec.series_length + round).ok());
      }

      const auto first = engine.GatherAlignedCells();
      ASSERT_TRUE(first.status.ok()) << first.status.ToString();
      EXPECT_EQ(first.stats.shards_reused, 0);
      // With no write between them, the second gather folds the same
      // publications again: every shard reused, no frame copied, and every
      // cell shares the first gather's frame.
      const auto second = engine.GatherAlignedCells();
      ASSERT_TRUE(second.status.ok()) << second.status.ToString();
      EXPECT_EQ(second.revision, first.revision);
      EXPECT_EQ(second.stats.shards_reused, shards);
      EXPECT_EQ(second.stats.materialized, 0);
      ASSERT_EQ(second.cells->size(), first.cells->size());
      int changed_frames = 0;
      for (size_t i = 0; i < first.cells->size(); ++i) {
        if ((*first.cells)[i].frame != (*second.cells)[i].frame) {
          ++changed_frames;
        }
      }
      EXPECT_EQ(changed_frames, 0);

      const auto want = oracle.Gather();
      ExpectGathersIdentical(first, want, num_levels);
      ExpectGathersIdentical(second, want, num_levels);
    }
  }
}

// --------------------------------------------------------------- accounting

TEST(AsyncIngestMemoryTest, QueueSlotsAreAccountedAndMoveBetweenTrackers) {
  const auto spec = ChurnWorkload(16, 8, 3);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4, nullptr,
                             AsyncConfig(/*capacity=*/32));
  const std::int64_t expected_bytes =
      4 * 32 * static_cast<std::int64_t>(sizeof(StreamTuple));
  EXPECT_EQ(engine.IngestQueueBytes(), expected_bytes);

  MemoryTracker first;
  engine.set_memory_tracker(&first);
  EXPECT_EQ(first.category_bytes("ingest.queue"), expected_bytes);

  MemoryTracker second;
  engine.set_memory_tracker(&second);
  EXPECT_EQ(first.category_bytes("ingest.queue"), 0);
  EXPECT_EQ(second.category_bytes("ingest.queue"), expected_bytes);

  engine.set_memory_tracker(nullptr);
  EXPECT_EQ(second.category_bytes("ingest.queue"), 0);
}

TEST(AsyncIngestMemoryTest, SyncEngineAccountsNoQueueBytes) {
  const auto spec = ChurnWorkload(16, 8, 3);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  EXPECT_EQ(engine.IngestQueueBytes(), 0);
  MemoryTracker tracker;
  engine.set_memory_tracker(&tracker);
  EXPECT_EQ(tracker.category_bytes("ingest.queue"), 0);
}

// Async ingest under a memory budget with no reader: nothing publishes,
// so every written cell stays dirty and only the export.dirty rung can
// make it spillable. Each enforcement point after Flush() must still put
// the governor's usage at or below the budget, and the budgeted engine
// must answer bit-identically to an unbudgeted sync one.
TEST(AsyncIngestMemoryTest, BudgetHoldsWithoutReaders) {
  const auto spec = ChurnWorkload(150, 16, 29);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();

  ChurnPlan plan;
  plan.rounds = 9;
  plan.seed = 37;
  plan.max_dirty_per_round = 60;
  plan.base_tick = 16;
  plan.advance_ticks = true;
  plan.seal_every = 3;

  ReferenceStore oracle(*schema, ChurnEngineOptions());
  ASSERT_TRUE(oracle.IngestBatch(stream).ok());
  RunChurnRounds(oracle, gen.cells(), plan, [](int) {});
  const auto want = oracle.Gather();

  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    // An unbudgeted engine after the same writes sizes the budget.
    ShardedStreamEngine unbounded(*schema, ChurnEngineOptions(), shards);
    ASSERT_TRUE(unbounded.IngestBatch(stream).ok());
    RunChurnRounds(unbounded, gen.cells(), plan, [](int) {});

    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards,
                               nullptr, AsyncConfig(/*capacity=*/32));
    // What the governor measures without a tracker: frames, member
    // indexes, the cube memo and the queue rings.
    auto usage = [&engine] {
      return engine.MemoryBytes() + engine.MemberIndexBytes() +
             engine.CubeMemoBytes() + engine.IngestQueueBytes();
    };
    // A quarter of the unbudgeted frames on top of what cannot be evicted
    // (the queue rings and the member index): the ladder must spill.
    MemoryBudgetConfig config;
    config.budget_bytes = engine.IngestQueueBytes() +
                          unbounded.MemberIndexBytes() +
                          unbounded.MemoryBytes() / 4;
    config.spill_dir = ::testing::TempDir() + "/async_budget_" +
                       std::to_string(shards);
    ASSERT_TRUE(engine.ConfigureStorage(config).ok());

    // The owner threads' post-batch hook may still be enforcing when
    // Flush() returns (the ack precedes the hook), and an enforcement
    // already in flight makes a second one a no-op: probe until the
    // in-flight run has finished and ours found usage under budget.
    auto expect_under_budget = [&] {
      std::int64_t bytes = usage();
      for (int probe = 0; probe < 2000 && bytes > config.budget_bytes;
           ++probe) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        engine.MaybeEnforceBudget();
        bytes = usage();
      }
      EXPECT_LE(bytes, config.budget_bytes);
    };
    ASSERT_TRUE(engine.IngestAsync(stream).ok());
    ASSERT_TRUE(engine.Flush().ok());
    expect_under_budget();
    RunChurnRounds(engine, gen.cells(), plan, [&](int) {
      ASSERT_TRUE(engine.Flush().ok());
      expect_under_budget();
    });

    const SpillStats spill = engine.SpillStats();
    EXPECT_GT(spill.export_evictions, 0);  // the rung that did the work
    EXPECT_GT(spill.spilled_cells, 0);
    ExpectGathersIdentical(engine.GatherAlignedCells(), want, num_levels);
  }
}

// ------------------------------------------------------------------- facade

Result<Engine> BuildFacade(const std::shared_ptr<const CubeSchema>& schema,
                           IngestMode mode) {
  return EngineBuilder()
      .SetSchema(schema)
      .SetTiltPolicy(equivalence::SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2)
      .SetIngestMode(mode)
      .SetQueueCapacity(128)
      .Build();
}

TEST(AsyncIngestFacadeTest, BuilderRejectsNonPositiveQueueCapacity) {
  const auto spec = ChurnWorkload(16, 8, 3);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto engine = EngineBuilder()
                    .SetSchema(*schema)
                    .SetTiltPolicy(equivalence::SmallTiltPolicy())
                    .SetIngestMode(IngestMode::kAsync)
                    .SetQueueCapacity(0)
                    .Build();
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(AsyncIngestFacadeTest, SyncModeFlushIsANoOpAndStatsAreEmpty) {
  const auto spec = ChurnWorkload(16, 8, 3);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto engine = BuildFacade(*schema, IngestMode::kSync);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->Flush().ok());
  const IngestStats stats = engine->IngestStats();
  EXPECT_EQ(stats.mode, IngestMode::kSync);
  EXPECT_TRUE(stats.per_shard.empty());
  EXPECT_EQ(stats.queue_capacity, 0);
}

TEST(AsyncIngestFacadeTest, AsyncFacadeReportsQueuePoolAndServesQueries) {
  const auto spec = ChurnWorkload(24, 12, 9);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  auto engine = BuildFacade(*schema, IngestMode::kAsync);
  ASSERT_TRUE(engine.ok());

  const IngestTicket ticket = engine->IngestAsync(gen.GenerateStream());
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->SealThrough(spec.series_length - 1).ok());

  bool saw_queue_pool = false;
  for (const auto& [category, bytes] : engine->MemoryReport()) {
    if (category == "ingest.queue") {
      saw_queue_pool = true;
      EXPECT_EQ(bytes,
                2 * 128 * static_cast<std::int64_t>(sizeof(StreamTuple)));
    }
  }
  EXPECT_TRUE(saw_queue_pool);

  auto cube = engine->ComputeCube(0, 3);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_GT(cube->o_layer().size(), 0u);
  EXPECT_EQ(engine->IngestStats().total.absorbed, ticket.enqueued);
}

// ---------------------------------------------------------- maintained cube

// The maintained cube answers a query at its own revision without a
// gather, so every write must move the revision before a reader can see
// it. These pin that for the async path: an owner thread bumps the
// revision inside its absorb, before the batch resolves, so a reader
// returning from Flush() never gets the pre-write memo.

constexpr int kCubeLevel = 0;
constexpr int kCubeSlots = 2;

// Every generated cell holds ticks 0..7 and a pacer cell drives the clock
// to 11, so a tick-7 write lands in the globally sealed slot [4,8) inside
// the (0, 2) window, and a pacer write only moves the revision.
CellKey PacerKey() { return Key2(15, 15); }

void SeedLaggingAsync(Engine& engine, StreamGenerator& gen) {
  ASSERT_TRUE(engine.IngestAsync(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.IngestAsync({{PacerKey(), 11, 1.0}}).ok());
  ASSERT_TRUE(engine.Flush().ok());
}

std::vector<StreamTuple> LateTuples(StreamGenerator& gen,
                                    double value) {
  std::vector<StreamTuple> late;
  for (const auto& cell : gen.cells()) late.push_back({cell.key, 7, value});
  return late;
}

TEST(AsyncIngestCubeTest, FlushedWritesAreNeverServedTheStaleMemo) {
  const auto spec = ChurnWorkload(150, 8, 47);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  auto engine = BuildFacade(*schema, IngestMode::kAsync);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  SeedLaggingAsync(*engine, gen);

  auto top = engine->Query(
      QuerySpec::TopExceptions(5, kCubeLevel, kCubeSlots));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_FALSE(top->cells().empty()) << "no exceptions to drill into";
  const CellResult target = top->cells().front();
  const std::vector<QuerySpec> specs = {
      QuerySpec::DrillDown(target.cuboid, target.key, kCubeLevel,
                           kCubeSlots),
      QuerySpec::CubeCell(target.cuboid, target.key, kCubeLevel,
                          kCubeSlots)};
  auto before = engine->Query(specs[1]);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  ASSERT_TRUE(engine->IngestAsync(LateTuples(gen, 100.0)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  std::vector<Result<QueryResult>> answers;
  for (const QuerySpec& q : specs) answers.push_back(engine->Query(q));

  // The flushed tuples moved the drilled cell, and both answers show it.
  ASSERT_TRUE(answers[1].ok()) << answers[1].status().ToString();
  EXPECT_FALSE(answers[1]->cell() == before->cell());
  auto scratch =
      engine->TakeSnapshot()->ComputeCube(kCubeLevel, kCubeSlots);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  equivalence::ExpectAnswersMatchCube(*scratch, ExceptionPolicy(0.02), specs,
                                      answers);
}

// Two readers loop every cube-side kind while one writer pushes late data
// and pacer ticks through the queues, flushing each round. Once both sides
// are done, every kind must equal the from-scratch cube.
TEST(AsyncIngestCubeTest, ConcurrentCubeReadersAndAsyncWriterMatchScratch) {
  const auto spec = ChurnWorkload(150, 8, 47);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  auto built = BuildFacade(*schema, IngestMode::kAsync);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine& engine = *built;
  SeedLaggingAsync(engine, gen);

  std::atomic<bool> done{false};
  auto read_loop = [&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      auto top = engine.Query(
          QuerySpec::TopExceptions(5, kCubeLevel, kCubeSlots));
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      for (const QuerySpec& q : equivalence::CubeSessionSpecs(
               engine.lattice(), top->cells(), kCubeLevel, kCubeSlots)) {
        auto answer = engine.Query(q);
        // A write between the top query and this one may have turned the
        // exception into a plain (unmaterialized) cell.
        ASSERT_TRUE(answer.ok() ||
                    answer.status().code() == StatusCode::kNotFound)
            << answer.status().ToString();
      }
    }
  };
  std::thread reader_a(read_loop);
  std::thread reader_b(read_loop);
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(engine.IngestAsync(LateTuples(gen, 1.0 + round)).ok());
    ASSERT_TRUE(engine.IngestAsync({{PacerKey(), 11, 0.5}}).ok());
    ASSERT_TRUE(engine.Flush().ok());
  }
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();

  auto top =
      engine.Query(QuerySpec::TopExceptions(5, kCubeLevel, kCubeSlots));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  std::vector<QuerySpec> specs = equivalence::CubeSessionSpecs(
      engine.lattice(), top->cells(), kCubeLevel, kCubeSlots);
  specs.push_back(QuerySpec::TopExceptions(5, kCubeLevel, kCubeSlots));
  std::vector<Result<QueryResult>> answers;
  for (const QuerySpec& q : specs) answers.push_back(engine.Query(q));
  auto scratch = engine.TakeSnapshot()->ComputeCube(kCubeLevel, kCubeSlots);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  equivalence::ExpectAnswersMatchCube(*scratch, ExceptionPolicy(0.02), specs,
                                      answers);
}

}  // namespace
}  // namespace regcube
