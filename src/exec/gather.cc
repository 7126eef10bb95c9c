#include "exec/gather.h"

#include "util/logging.h"

namespace cstore {
namespace exec {

Status GatherColumnValues(const position::PositionSet& sel,
                          const MiniColumn* mini,
                          const codec::ColumnReader* reader, ExecStats* stats,
                          std::vector<Value>* out) {
  if (mini != nullptr) {
    mini->GatherValues(sel, out);
  } else {
    CSTORE_CHECK(reader != nullptr)
        << "no mini-column and no fallback reader";
    CSTORE_RETURN_IF_ERROR(ForEachCoveringBlock(
        reader, sel, stats,
        [&](const codec::EncodedBlock& blk,
            std::span<const position::Range> runs) {
          blk.view.GatherRanges(runs, out);
        }));
  }
  stats->values_gathered += sel.Cardinality();
  return Status::OK();
}

}  // namespace exec
}  // namespace cstore
