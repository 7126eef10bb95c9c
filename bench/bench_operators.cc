// Ablation A-3: operator micro-benchmarks (google-benchmark). Throughput of
// the individual executor pieces the analytical model's constants describe:
// predicate scans per encoding (DS1), positional gathers (DS3), position-set
// AND, tuple stitching (Merge-style vs. iterator-style), and codec
// decompression.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "codec/column_reader.h"
#include "codec/column_writer.h"
#include "exec/tuple_chunk.h"
#include "position/position_set.h"
#include "position/run_cursor.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "util/random.h"

namespace cstore {
namespace {

/// Shared on-disk fixture: one column per encoding, 1M values, built once.
class Fixture {
 public:
  static Fixture& Get() {
    static Fixture* f = new Fixture();
    return *f;
  }

  const codec::ColumnReader* column(codec::Encoding enc) const {
    switch (enc) {
      case codec::Encoding::kUncompressed:
        return plain_.get();
      case codec::Encoding::kRle:
        return rle_.get();
      case codec::Encoding::kBitVector:
        return bv_.get();
      case codec::Encoding::kDict:
        return dict_.get();
    }
    return nullptr;
  }

  const std::vector<Value>& values() const { return values_; }

 private:
  Fixture() {
    char tmpl[] = "/tmp/cstore_gbench_XXXXXX";
    CSTORE_CHECK(::mkdtemp(tmpl) != nullptr);
    auto fm = storage::FileManager::Open(tmpl);
    CSTORE_CHECK(fm.ok());
    files_ = std::move(fm).value();
    pool_ = std::make_unique<storage::BufferPool>(files_.get(), 4096);

    Random rng(17);
    values_.reserve(kN);
    Value v = 0;
    while (values_.size() < kN) {
      v = static_cast<Value>(rng.Uniform(7)) + 1;
      size_t run = 1 + rng.Uniform(16);
      for (size_t i = 0; i < run && values_.size() < kN; ++i) {
        values_.push_back(v);
      }
    }
    plain_ = Write("plain", codec::Encoding::kUncompressed);
    rle_ = Write("rle", codec::Encoding::kRle);
    bv_ = Write("bv", codec::Encoding::kBitVector);
    dict_ = Write("dict", codec::Encoding::kDict);
  }

  std::unique_ptr<codec::ColumnReader> Write(const char* name,
                                             codec::Encoding enc) {
    auto writer = codec::ColumnWriter::Create(files_.get(), name, enc);
    CSTORE_CHECK(writer.ok());
    for (Value v : values_) {
      CSTORE_CHECK_OK((*writer)->Append(v));
    }
    CSTORE_CHECK((*writer)->Finish().ok());
    auto reader = codec::ColumnReader::Open(files_.get(), pool_.get(), name);
    CSTORE_CHECK(reader.ok());
    return std::move(reader).value();
  }

  static constexpr size_t kN = 1 << 20;
  std::unique_ptr<storage::FileManager> files_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::vector<Value> values_;
  std::unique_ptr<codec::ColumnReader> plain_;
  std::unique_ptr<codec::ColumnReader> rle_;
  std::unique_ptr<codec::ColumnReader> bv_;
  std::unique_ptr<codec::ColumnReader> dict_;
};

void BM_PredicateScan(benchmark::State& state) {
  auto enc = static_cast<codec::Encoding>(state.range(0));
  const codec::ColumnReader* col = Fixture::Get().column(enc);
  codec::Predicate pred = codec::Predicate::LessThan(5);
  for (auto _ : state) {
    uint64_t matches = 0;
    for (uint64_t b = 0; b < col->num_blocks(); ++b) {
      auto blk = col->FetchBlock(b);
      Position s = blk->view.start_pos();
      Position e = blk->view.end_pos();
      if (blk->view.PredicateNeedsBitmap()) {
        position::Bitmap bm(s, e - s);
        blk->view.EvalPredicate(pred, nullptr, &bm);
        matches += bm.CountSet();
      } else {
        position::SetBuilder builder(s, e);
        blk->view.EvalPredicate(pred, &builder, nullptr);
        matches += std::move(builder).Build().Cardinality();
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * col->num_values());
}
BENCHMARK(BM_PredicateScan)
    ->Arg(0)  // uncompressed
    ->Arg(1)  // rle
    ->Arg(2)  // bit-vector
    ->Arg(3)  // dictionary
    ->Unit(benchmark::kMillisecond);

void BM_Decompress(benchmark::State& state) {
  auto enc = static_cast<codec::Encoding>(state.range(0));
  const codec::ColumnReader* col = Fixture::Get().column(enc);
  std::vector<Value> out;
  for (auto _ : state) {
    out.clear();
    for (uint64_t b = 0; b < col->num_blocks(); ++b) {
      auto blk = col->FetchBlock(b);
      blk->view.Decompress(&out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * col->num_values());
}
BENCHMARK(BM_Decompress)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

void BM_Gather(benchmark::State& state) {
  auto enc = static_cast<codec::Encoding>(state.range(0));
  double density = static_cast<double>(state.range(1)) / 100.0;
  const codec::ColumnReader* col = Fixture::Get().column(enc);
  Random rng(3);
  position::SetBuilder builder(0, col->num_values());
  for (Position p = 0; p < col->num_values(); ++p) {
    if (rng.Bernoulli(density)) builder.Add(p);
  }
  position::PositionSet sel = std::move(builder).Build();
  std::vector<Value> out;
  for (auto _ : state) {
    out.clear();
    position::RunCursor runs(sel);
    for (uint64_t b : runs.Blocks(col->meta().block_start_pos)) {
      auto blk = col->FetchBlock(b);
      blk->view.GatherRanges(
          runs.Clip(blk->view.start_pos(), blk->view.end_pos()), &out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * sel.Cardinality());
}
BENCHMARK(BM_Gather)
    ->Args({0, 5})
    ->Args({0, 90})
    ->Args({1, 5})
    ->Args({1, 90})
    ->Unit(benchmark::kMillisecond);

void BM_BitmapAnd(benchmark::State& state) {
  const size_t n = 1 << 20;
  Random rng(5);
  position::Bitmap a(0, n);
  position::Bitmap b(0, n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) a.Set(i);
    if (rng.Bernoulli(0.5)) b.Set(i);
  }
  for (auto _ : state) {
    position::Bitmap c = position::Bitmap::And(a, b);
    benchmark::DoNotOptimize(c.words());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitmapAnd);

void BM_TupleStitchArray(benchmark::State& state) {
  // Merge-style: direct array writes.
  const size_t n = 1 << 18;
  std::vector<Value> col_a(n, 1);
  std::vector<Value> col_b(n, 2);
  for (auto _ : state) {
    exec::TupleChunk chunk(2);
    chunk.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Value* slots = chunk.AppendTuple(i);
      slots[0] = col_a[i];
      slots[1] = col_b[i];
    }
    benchmark::DoNotOptimize(chunk.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TupleStitchArray);

void BM_TupleStitchIterator(benchmark::State& state) {
  // EM-style: per-tuple emission through the virtual tuple iterator.
  const size_t n = 1 << 18;
  std::vector<Value> col_a(n, 1);
  std::vector<Value> col_b(n, 2);
  for (auto _ : state) {
    exec::TupleChunk chunk(2);
    chunk.Reserve(n);
    exec::ChunkTupleEmitter emitter(&chunk);
    exec::TupleEmitter* sink = &emitter;
    Value row[2];
    for (size_t i = 0; i < n; ++i) {
      row[0] = col_a[i];
      row[1] = col_b[i];
      sink->Emit(i, row);
    }
    benchmark::DoNotOptimize(chunk.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TupleStitchIterator);

}  // namespace
}  // namespace cstore

BENCHMARK_MAIN();
