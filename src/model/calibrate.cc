#include "model/calibrate.h"

#include <algorithm>
#include <vector>

#include "exec/tuple_chunk.h"
#include "util/stopwatch.h"

namespace cstore {
namespace model {

namespace {

// Opaque call target for the FC probe; noinline + asm sink so the optimizer
// keeps the calls.
__attribute__((noinline)) int64_t OpaqueAdd(int64_t a, int64_t b) {
  asm volatile("");
  return a + b;
}

void Sink(int64_t v) { asm volatile("" : : "r"(v) : "memory"); }

}  // namespace

double Calibrator::MeasureFunctionCall() const {
  const size_t n = options_.loop_size;
  double best = 1e9;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    Stopwatch sw;
    int64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
      acc = OpaqueAdd(acc, static_cast<int64_t>(i));
    }
    Sink(acc);
    best = std::min(best, sw.ElapsedMicros() / static_cast<double>(n));
  }
  return best;
}

double Calibrator::MeasureColumnIter() const {
  // Column-iterator getNext: walk a dense value array through an iterator
  // abstraction (bounds check + pointer advance per call).
  const size_t n = options_.loop_size;
  std::vector<Value> col(n, 7);
  struct ColumnIter {
    const Value* p;
    const Value* end;
    bool HasNext() const { return p != end; }
    Value GetNext() { return *p++; }
  };
  double best = 1e9;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    ColumnIter it{col.data(), col.data() + n};
    Stopwatch sw;
    int64_t acc = 0;
    while (it.HasNext()) acc += it.GetNext();
    Sink(acc);
    best = std::min(best, sw.ElapsedMicros() / static_cast<double>(n));
  }
  return best;
}

double Calibrator::MeasureTupleIter() const {
  // Tuple-iterator getNext: walk row-major tuples, touching each slot.
  const size_t n = options_.loop_size / 4;
  exec::TupleChunk chunk(4);
  chunk.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value row[4] = {static_cast<Value>(i), 1, 2, 3};
    chunk.AppendTuple(i, row);
  }
  double best = 1e9;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    Stopwatch sw;
    int64_t acc = 0;
    for (size_t i = 0; i < chunk.num_tuples(); ++i) {
      const Value* row = chunk.tuple(i);
      acc += row[0] + row[3];
    }
    Sink(acc);
    best = std::min(best,
                    sw.ElapsedMicros() / static_cast<double>(n));
  }
  return best;
}

double Calibrator::MeasureBlockIter() const {
  // Block-iterator getNext: per-block overhead of advancing a block cursor
  // (header decode + view construction), excluding value processing.
  const size_t blocks = 4096;
  struct FakeBlock {
    uint64_t start;
    uint32_t n;
    uint8_t enc;
  };
  std::vector<FakeBlock> col(blocks);
  for (size_t i = 0; i < blocks; ++i) {
    col[i] = FakeBlock{i * 8128, 8128, static_cast<uint8_t>(i % 3)};
  }
  double best = 1e9;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    Stopwatch sw;
    int64_t acc = 0;
    for (int pass = 0; pass < 64; ++pass) {
      for (size_t i = 0; i < blocks; ++i) {
        acc = OpaqueAdd(acc, static_cast<int64_t>(col[i].start) + col[i].n);
      }
    }
    Sink(acc);
    best = std::min(best, sw.ElapsedMicros() / (64.0 * blocks));
  }
  return best;
}

namespace {

/// Copies the I/O constants from `disk` (zero when simulation is off: a warm
/// page cache makes I/O effectively free relative to the CPU terms).
void ApplyDisk(const storage::DiskModel& disk, CostParams* p) {
  if (disk.enabled()) {
    p->seek = disk.params().seek_micros;
    p->read = disk.params().read_micros;
    p->pf = disk.params().prefetch_blocks;
  } else {
    p->seek = 0.0;
    p->read = 0.0;
    p->pf = 1.0;
  }
}

/// Quick calibrations whose per-constant median ForProcess keeps. One run
/// takes a few ms; single runs in one process spread up to 2x per constant.
constexpr int kProcessRuns = 5;

/// Each CPU constant's median over `runs` quick calibrations.
CostParams MedianCpuConstants(int runs) {
  Calibrator::Options opts;
  opts.loop_size = 1 << 18;
  opts.repetitions = 2;
  Calibrator calibrator(opts);
  std::vector<double> fc, tic_col, tic_tup, bic;
  for (int i = 0; i < runs; ++i) {
    fc.push_back(calibrator.MeasureFunctionCall());
    tic_col.push_back(calibrator.MeasureColumnIter());
    tic_tup.push_back(calibrator.MeasureTupleIter());
    bic.push_back(calibrator.MeasureBlockIter());
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  CostParams p;
  p.fc = median(fc);
  p.tic_col = median(tic_col);
  p.tic_tup = median(tic_tup);
  p.bic = median(bic);
  p.word_bits = kWordBits;
  return p;
}

}  // namespace

CostParams Calibrator::Run(const storage::DiskModel& disk) const {
  CostParams p;
  p.fc = MeasureFunctionCall();
  p.tic_col = MeasureColumnIter();
  p.tic_tup = MeasureTupleIter();
  p.bic = MeasureBlockIter();
  p.word_bits = kWordBits;
  ApplyDisk(disk, &p);
  return p;
}

CostParams Calibrator::ForProcess(const storage::DiskModel& disk) {
  static const CostParams cpu = MedianCpuConstants(kProcessRuns);
  CostParams p = cpu;
  ApplyDisk(disk, &p);
  return p;
}

}  // namespace model
}  // namespace cstore
