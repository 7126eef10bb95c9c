// Storage tests: file manager round-trips, buffer-pool caching/pinning/CLOCK
// semantics, lock-free page release under concurrent fetches, I/O
// statistics, retired-fd capping, and the simulated disk model.

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/file_manager.h"
#include "test_util.h"

namespace cstore {
namespace {

using storage::BufferPool;
using storage::DiskModel;
using storage::FileId;
using storage::FileManager;
using storage::Page;
using storage::PageRef;
using testing::TempDir;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fm = FileManager::Open(dir_.path());
    ASSERT_TRUE(fm.ok());
    files_ = std::move(fm).value();
  }

  Page MakePage(uint32_t tag) {
    Page p;
    p.header()->magic = storage::BlockHeader::kMagic;
    p.header()->num_values = tag;
    std::memcpy(p.payload(), &tag, sizeof(tag));
    return p;
  }

  TempDir dir_;
  std::unique_ptr<FileManager> files_;
};

TEST_F(StorageTest, AppendAndReadBack) {
  ASSERT_OK_AND_ASSIGN(FileId f, files_->Create("col"));
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t blk, files_->AppendBlock(f, MakePage(i)));
    EXPECT_EQ(blk, i);
  }
  ASSERT_OK_AND_ASSIGN(uint64_t n, files_->NumBlocks(f));
  EXPECT_EQ(n, 5u);
  Page p;
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_OK(files_->ReadBlock(f, i, &p));
    EXPECT_EQ(p.header()->num_values, i);
  }
}

TEST_F(StorageTest, ReadBeyondEndFails) {
  ASSERT_OK_AND_ASSIGN(FileId f, files_->Create("col"));
  ASSERT_OK_AND_ASSIGN(uint64_t blk, files_->AppendBlock(f, MakePage(0)));
  (void)blk;
  Page p;
  EXPECT_FALSE(files_->ReadBlock(f, 1, &p).ok());
}

TEST_F(StorageTest, OpenExistingSeesPersistedBlocks) {
  ASSERT_OK_AND_ASSIGN(FileId f, files_->Create("col"));
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t b, files_->AppendBlock(f, MakePage(i)));
    (void)b;
  }
  // Re-open through a second manager (fresh process simulation).
  ASSERT_OK_AND_ASSIGN(auto files2, FileManager::Open(dir_.path()));
  ASSERT_OK_AND_ASSIGN(FileId f2, files2->OpenExisting("col"));
  ASSERT_OK_AND_ASSIGN(uint64_t n, files2->NumBlocks(f2));
  EXPECT_EQ(n, 3u);
}

TEST_F(StorageTest, OpenMissingFileFails) {
  EXPECT_FALSE(files_->OpenExisting("nope").ok());
  EXPECT_FALSE(files_->Exists("nope"));
}

TEST_F(StorageTest, SidecarRoundTrip) {
  std::vector<char> bytes = {'a', 'b', 'c', 0, 1, 2};
  ASSERT_OK(files_->WriteSidecar("col", bytes));
  ASSERT_OK_AND_ASSIGN(auto got, files_->ReadSidecar("col"));
  EXPECT_EQ(got, bytes);
}

TEST_F(StorageTest, CorruptMagicDetected) {
  ASSERT_OK_AND_ASSIGN(FileId f, files_->Create("col"));
  Page bad;
  bad.header()->magic = 0xdeadbeef;
  ASSERT_OK_AND_ASSIGN(uint64_t b, files_->AppendBlock(f, bad));
  (void)b;
  Page p;
  Status st = files_->ReadBlock(f, 0, &p);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

class BufferPoolTest : public StorageTest {
 protected:
  void Fill(const std::string& name, uint32_t nblocks, FileId* out) {
    ASSERT_OK_AND_ASSIGN(FileId f, files_->Create(name));
    for (uint32_t i = 0; i < nblocks; ++i) {
      ASSERT_OK_AND_ASSIGN(uint64_t b, files_->AppendBlock(f, MakePage(i)));
      (void)b;
    }
    *out = f;
  }
};

TEST_F(BufferPoolTest, HitAfterMiss) {
  FileId f;
  Fill("col", 4, &f);
  BufferPool pool(files_.get(), 8);
  {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 0));
    EXPECT_EQ(r.header()->num_values, 0u);
  }
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 0));
    (void)r;
  }
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  EXPECT_EQ(pool.stats().cache_hits, 1u);
}

TEST_F(BufferPoolTest, ClockEvictsInStreamingOrderWhenFull) {
  FileId f;
  Fill("col", 10, &f);
  BufferPool pool(files_.get(), 4);
  for (uint64_t b = 0; b < 10; ++b) {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
    (void)r;
  }
  EXPECT_EQ(pool.stats().physical_reads, 10u);
  EXPECT_EQ(pool.stats().evictions, 6u);
  EXPECT_EQ(pool.num_cached(), 4u);
  // A stream read once sets no reference bit, so the hand evicts in load
  // order: blocks 6..9 resident; 0 is not.
  ASSERT_OK_AND_ASSIGN(PageRef r9, pool.Fetch(f, 9));
  (void)r9;
  EXPECT_EQ(pool.stats().cache_hits, 1u);
  ASSERT_OK_AND_ASSIGN(PageRef r0, pool.Fetch(f, 0));
  (void)r0;
  EXPECT_EQ(pool.stats().physical_reads, 11u);
}

TEST_F(BufferPoolTest, PinnedPagesNeverEvicted) {
  FileId f;
  Fill("col", 10, &f);
  BufferPool pool(files_.get(), 3);
  ASSERT_OK_AND_ASSIGN(PageRef pin0, pool.Fetch(f, 0));
  ASSERT_OK_AND_ASSIGN(PageRef pin1, pool.Fetch(f, 1));
  // Cycle through the remaining frame.
  for (uint64_t b = 2; b < 10; ++b) {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
    (void)r;
  }
  // Pinned pages still resident: refetching is a hit.
  uint64_t hits_before = pool.stats().cache_hits;
  ASSERT_OK_AND_ASSIGN(PageRef again0, pool.Fetch(f, 0));
  ASSERT_OK_AND_ASSIGN(PageRef again1, pool.Fetch(f, 1));
  (void)again0;
  (void)again1;
  EXPECT_EQ(pool.stats().cache_hits, hits_before + 2);
  EXPECT_EQ(pin0.header()->num_values, 0u);
  EXPECT_EQ(pin1.header()->num_values, 1u);
}

TEST_F(BufferPoolTest, AllFramesPinnedFails) {
  FileId f;
  Fill("col", 4, &f);
  BufferPool pool(files_.get(), 2);
  ASSERT_OK_AND_ASSIGN(PageRef a, pool.Fetch(f, 0));
  ASSERT_OK_AND_ASSIGN(PageRef b, pool.Fetch(f, 1));
  auto r = pool.Fetch(f, 2);
  EXPECT_FALSE(r.ok());
  // Releasing a pin makes room again.
  a.Release();
  ASSERT_OK_AND_ASSIGN(PageRef c, pool.Fetch(f, 2));
  (void)b;
  (void)c;
}

TEST_F(BufferPoolTest, SeekCounting) {
  FileId f;
  Fill("col", 8, &f);
  BufferPool pool(files_.get(), 16);
  // Sequential reads: one seek for the first block only.
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
    (void)r;
  }
  EXPECT_EQ(pool.stats().seeks, 1u);
  // A jump is a seek.
  ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 7));
  (void)r;
  EXPECT_EQ(pool.stats().seeks, 2u);
}

TEST_F(BufferPoolTest, ClearDropsEverything) {
  FileId f;
  Fill("col", 4, &f);
  BufferPool pool(files_.get(), 8);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
    (void)r;
  }
  EXPECT_EQ(pool.num_cached(), 4u);
  pool.Clear();
  EXPECT_EQ(pool.num_cached(), 0u);
  ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 0));
  (void)r;
  EXPECT_EQ(pool.stats().physical_reads, 5u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfPageRef) {
  FileId f;
  Fill("col", 2, &f);
  BufferPool pool(files_.get(), 4);
  ASSERT_OK_AND_ASSIGN(PageRef a, pool.Fetch(f, 0));
  PageRef b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.header()->num_values, 0u);
  PageRef c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
}

// --- CLOCK replacement and lock-free release ------------------------------

TEST_F(BufferPoolTest, ReferencedBlockSurvivesTheSweep) {
  FileId f;
  Fill("col", 8, &f);
  BufferPool pool(files_.get(), 4);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
    (void)r;
  }
  {
    // A hit sets block 0's reference bit.
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 0));
    (void)r;
  }
  // The hand starts at block 0's frame: the miss clears its bit, passes
  // it over and evicts the unreferenced neighbour, block 1.
  {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 4));
    (void)r;
  }
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().physical_reads, 5u);
  {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 0));
    EXPECT_EQ(r.header()->num_values, 0u);
  }
  EXPECT_EQ(pool.stats().cache_hits, 2u);
  EXPECT_EQ(pool.stats().physical_reads, 5u);
  {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 1));
    EXPECT_EQ(r.header()->num_values, 1u);
  }
  EXPECT_EQ(pool.stats().physical_reads, 6u);
}

TEST_F(BufferPoolTest, FailedReadsLeaveEveryFrameClaimable) {
  FileId f;
  Fill("col", 4, &f);
  BufferPool pool(files_.get(), 2);
  for (uint64_t b = 10; b < 15; ++b) {
    EXPECT_FALSE(pool.Fetch(f, b).ok()) << "block " << b;
  }
  // A failed read counts nothing and leaves neither a block nor a seek
  // stream behind.
  EXPECT_EQ(pool.num_cached(), 0u);
  EXPECT_EQ(pool.stats().physical_reads, 0u);
  EXPECT_EQ(pool.stats().seeks, 0u);
  EXPECT_EQ(pool.stats().evictions, 0u);
  // Both frames are free again: the hand takes a frame whose read failed.
  ASSERT_OK_AND_ASSIGN(PageRef a, pool.Fetch(f, 0));
  ASSERT_OK_AND_ASSIGN(PageRef b, pool.Fetch(f, 1));
  EXPECT_EQ(a.header()->num_values, 0u);
  EXPECT_EQ(b.header()->num_values, 1u);
  EXPECT_EQ(pool.stats().physical_reads, 2u);
  EXPECT_EQ(pool.stats().seeks, 1u);
}

TEST_F(BufferPoolTest, LockContentionCountersPresent) {
  FileId f;
  Fill("col", 8, &f);
  BufferPool pool(files_.get(), 16);
  // Misses, then hits: every Fetch takes the pool mutex exactly once, and
  // releasing a page takes it not at all. Serial use never contends.
  for (uint64_t pass = 1; pass <= 2; ++pass) {
    for (uint64_t b = 0; b < 8; ++b) {
      ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
      (void)r;
    }
    EXPECT_EQ(pool.stats().pool_lock_acquisitions, 8u * pass);
  }
  EXPECT_EQ(pool.stats().cache_hits, 8u);
  EXPECT_EQ(pool.stats().pool_lock_contended, 0u);
  EXPECT_EQ(pool.stats().pool_lock_wait_ns, 0u);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().pool_lock_acquisitions, 0u);
}

TEST_F(BufferPoolTest, ConcurrentFetchesAreConsistent) {
  FileId f;
  Fill("col", 32, &f);
  // 16 frames for 32 blocks, so the hand sweeps while other threads drop
  // their pins without the lock. Each thread pins one block at a time, so
  // 8 threads can never pin every frame.
  BufferPool pool(files_.get(), 16);
  constexpr int kThreads = 8;
  constexpr uint64_t kFetches = uint64_t{kThreads} * 40u * 32u;
  std::vector<std::thread> threads;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 40; ++round) {
        for (uint64_t b = 0; b < 32; ++b) {
          auto r = pool.Fetch(f, b);
          if (!r.ok() || r->header()->num_values != b) ++bad[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0);
  // Counter sanity after the storm: every Fetch was either a hit or a
  // physical read and took the mutex once, every read past the first 16
  // evicted a block, and residency never exceeds capacity.
  const storage::IoStats st = pool.stats();
  EXPECT_EQ(st.cache_hits + st.physical_reads, kFetches);
  EXPECT_EQ(st.pool_lock_acquisitions, kFetches);
  EXPECT_EQ(pool.num_cached(), pool.capacity());
  EXPECT_EQ(st.evictions, st.physical_reads - pool.capacity());
}

// --- Retired-descriptor capping ---------------------------------------------

TEST_F(StorageTest, RetiredFdsStayCapped) {
  files_->set_max_retired_fds(4);
  // Re-creating a name retires the previous descriptor (the tuple mover
  // does this once per generation swap); the cap bounds what accumulates.
  for (int gen = 0; gen < 20; ++gen) {
    ASSERT_OK_AND_ASSIGN(FileId f, files_->Create("col"));
    ASSERT_OK_AND_ASSIGN(uint64_t b,
                         files_->AppendBlock(f, MakePage(gen)));
    (void)b;
    EXPECT_LE(files_->retired_fd_count(), 4u);
  }
  EXPECT_EQ(files_->retired_fd_count(), 4u);
  // The surviving (current) descriptor still reads correctly.
  ASSERT_OK_AND_ASSIGN(FileId f, files_->OpenExisting("col"));
  Page p;
  ASSERT_OK(files_->ReadBlock(f, 0, &p));
  EXPECT_EQ(p.header()->num_values, 19u);
}

TEST_F(StorageTest, RetiredFdCloseDoesNotDisturbConcurrentReads) {
  files_->set_max_retired_fds(2);
  ASSERT_OK_AND_ASSIGN(FileId f, files_->Create("stable"));
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t b, files_->AppendBlock(f, MakePage(i)));
    (void)b;
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread reader([&]() {
    Page p;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t i = 0; i < 8; ++i) {
        if (!files_->ReadBlock(f, i, &p).ok() ||
            p.header()->num_values != i) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  // Churn generations of another column, forcing retired-fd closes under
  // the exclusive read gate while the reader preads under the shared gate.
  for (int gen = 0; gen < 50; ++gen) {
    ASSERT_OK_AND_ASSIGN(FileId g, files_->Create("churn"));
    ASSERT_OK_AND_ASSIGN(uint64_t b, files_->AppendBlock(g, MakePage(gen)));
    (void)b;
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(files_->retired_fd_count(), 2u);
}

TEST(DiskModelTest, DisabledChargesNothing) {
  DiskModel dm;
  EXPECT_EQ(dm.CostForRead(true), 0.0);
  EXPECT_EQ(dm.CostForRead(false), 0.0);
}

TEST(DiskModelTest, Pf1ChargesSeekPerBlock) {
  DiskModel::Params params;
  params.enabled = true;
  params.seek_micros = 2500;
  params.read_micros = 1000;
  params.prefetch_blocks = 1;
  DiskModel dm(params);
  EXPECT_DOUBLE_EQ(dm.CostForRead(true), 3500.0);
  EXPECT_DOUBLE_EQ(dm.CostForRead(false), 3500.0);
}

TEST(DiskModelTest, PrefetchAmortizesSequentialSeeks) {
  DiskModel::Params params;
  params.enabled = true;
  params.seek_micros = 2500;
  params.read_micros = 1000;
  params.prefetch_blocks = 10;
  DiskModel dm(params);
  EXPECT_DOUBLE_EQ(dm.CostForRead(true), 1000.0 + 250.0);
  EXPECT_DOUBLE_EQ(dm.CostForRead(false), 3500.0);
}

TEST_F(BufferPoolTest, DiskModelChargesAccumulate) {
  FileId f;
  Fill("col", 4, &f);
  DiskModel::Params params;
  params.enabled = true;
  params.seek_micros = 100;
  params.read_micros = 10;
  params.prefetch_blocks = 1;
  DiskModel dm(params);
  BufferPool pool(files_.get(), 8, &dm);
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, b));
    (void)r;
  }
  // 4 cold reads at PF=1: 4 * (100 + 10).
  EXPECT_DOUBLE_EQ(pool.stats().charged_io_micros, 440.0);
  // Hits charge nothing.
  ASSERT_OK_AND_ASSIGN(PageRef r, pool.Fetch(f, 0));
  (void)r;
  EXPECT_DOUBLE_EQ(pool.stats().charged_io_micros, 440.0);
}

}  // namespace
}  // namespace cstore
