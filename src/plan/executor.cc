#include "plan/executor.h"

namespace cstore {
namespace plan {

uint64_t TupleDigest(const exec::TupleChunk& chunk, size_t i) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  const Value* row = chunk.tuple(i);
  for (uint32_t c = 0; c < chunk.width(); ++c) {
    uint64_t x = static_cast<uint64_t>(row[c]) + 0x9e3779b97f4a7c15ULL +
                 (h << 6) + (h >> 2);
    h ^= x * 0xbf58476d1ce4e5b9ULL;
    h = (h << 13) | (h >> 51);
  }
  return h;
}

uint64_t ChunkDigest(const exec::TupleChunk& chunk) {
  uint64_t sum = 0;
  for (size_t i = 0; i < chunk.num_tuples(); ++i) sum += TupleDigest(chunk, i);
  return sum;
}

}  // namespace plan
}  // namespace cstore
