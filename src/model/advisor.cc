#include "model/advisor.h"

#include <algorithm>
#include <cstdio>

namespace cstore {
namespace model {

namespace {

std::string DescribeInput(const SelectionModelInput& in) {
  // An index-answered column is marked: LM plans look its positions up
  // instead of scanning it.
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "inputs: col1{%s, |C|=%.0f, ||C||=%.0f, RL=%.1f, sf=%.3f, "
                "%s%s} col2{%s, |C|=%.0f, RL=%.1f, sf=%.3f%s}\n",
                codec::EncodingName(in.col1.encoding), in.col1.num_blocks,
                in.col1.num_tuples, in.col1.run_length, in.sf1,
                in.col1_clustered ? "clustered" : "unclustered",
                in.col1_index ? ", index-scan" : "",
                codec::EncodingName(in.col2.encoding), in.col2.num_blocks,
                in.col2.run_length, in.sf2,
                in.col2_index ? ", index-scan" : "");
  std::string out = buf;
  if (in.num_workers > 1) {
    std::snprintf(buf, sizeof(buf),
                  "parallel: %d morsel workers (cpu x%.3f, io unchanged)\n",
                  in.num_workers, ParallelCpuFactor(in.num_workers));
    out += buf;
  }
  return out;
}

std::string FormatRanking(const std::vector<StrategyPrediction>& ranked) {
  std::string out;
  char buf[160];
  for (size_t i = 0; i < ranked.size(); ++i) {
    const StrategyPrediction& p = ranked[i];
    if (!p.supported) {
      std::snprintf(buf, sizeof(buf), "  %-14s unsupported\n",
                    StrategyName(p.strategy));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  %-14s total=%9.2fms  cpu=%9.2fms  io=%9.2fms%s\n",
                    StrategyName(p.strategy), p.cost.total() / 1000.0,
                    p.cost.cpu / 1000.0, p.cost.io / 1000.0,
                    i == 0 ? "  <- chosen" : "");
    }
    out += buf;
  }
  return out;
}

}  // namespace

std::string Advisor::ExplainSelection(
    const SelectionModelInput& input) const {
  return DescribeInput(input) + FormatRanking(RankSelection(input));
}

std::string Advisor::ExplainAggregation(const SelectionModelInput& input,
                                        double groups) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "groups: ~%.0f\n", groups);
  return DescribeInput(input) + buf +
         FormatRanking(RankAggregation(input, groups));
}

namespace {

/// The planner's verdict when the input carries it; otherwise its rule
/// (plan::PositionFilterable) applied to col2, the filter LM-pipelined
/// position-filters.
bool Supported(plan::Strategy s, const SelectionModelInput& in) {
  return s != plan::Strategy::kLmPipelined ||
         in.lm_pipelined_supported.value_or(
             plan::PositionFilterable(in.col2.encoding, in.col2_index));
}

std::vector<StrategyPrediction> Sorted(
    std::vector<StrategyPrediction> preds) {
  std::sort(preds.begin(), preds.end(),
            [](const StrategyPrediction& a, const StrategyPrediction& b) {
              if (a.supported != b.supported) return a.supported;
              return a.cost.total() < b.cost.total();
            });
  return preds;
}

}  // namespace

std::vector<StrategyPrediction> Advisor::RankSelection(
    const SelectionModelInput& input) const {
  std::vector<StrategyPrediction> preds;
  for (plan::Strategy s : plan::kAllStrategies) {
    StrategyPrediction p;
    p.strategy = s;
    p.supported = Supported(s, input);
    if (p.supported) p.cost = PredictSelection(s, input, params_);
    preds.push_back(p);
  }
  return Sorted(std::move(preds));
}

std::vector<StrategyPrediction> Advisor::RankAggregation(
    const SelectionModelInput& input, double groups) const {
  std::vector<StrategyPrediction> preds;
  for (plan::Strategy s : plan::kAllStrategies) {
    StrategyPrediction p;
    p.strategy = s;
    p.supported = Supported(s, input);
    if (p.supported) p.cost = PredictAggregation(s, input, groups, params_);
    preds.push_back(p);
  }
  return Sorted(std::move(preds));
}

std::vector<StrategyPrediction> Advisor::RankSort(
    const SelectionModelInput& input, double limit) const {
  std::vector<StrategyPrediction> preds;
  for (plan::Strategy s : plan::kAllStrategies) {
    StrategyPrediction p;
    p.strategy = s;
    p.supported = Supported(s, input);
    if (p.supported) p.cost = PredictSort(s, input, limit, params_);
    preds.push_back(p);
  }
  return Sorted(std::move(preds));
}

std::string Advisor::ExplainSort(const SelectionModelInput& input,
                                 double limit) const {
  char buf[160];
  Cost sort_phase;
  PredictSort(plan::Strategy::kLmParallel, input, limit, params_,
              &sort_phase);
  const double rows = input.sf1 * input.sf2 * input.col1.num_tuples;
  if (limit > 0) {
    std::snprintf(buf, sizeof(buf),
                  "sort: ~%.0f rows, limit %.0f (top-n heap)  "
                  "run-form+merge=%9.2fms\n",
                  rows, limit, sort_phase.total() / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "sort: ~%.0f rows, full sort  run-form+merge=%9.2fms\n",
                  rows, sort_phase.total() / 1000.0);
  }
  return DescribeInput(input) + buf + FormatRanking(RankSort(input, limit));
}

std::vector<JoinPrediction> Advisor::RankJoin(
    const JoinModelInput& input) const {
  std::vector<JoinPrediction> preds;
  for (exec::JoinRightMode mode :
       {exec::JoinRightMode::kMaterialized, exec::JoinRightMode::kMultiColumn,
        exec::JoinRightMode::kSingleColumn}) {
    JoinPrediction p;
    p.mode = mode;
    p.cost = PredictJoin(mode, input, params_, &p.build, &p.probe);
    preds.push_back(p);
  }
  std::sort(preds.begin(), preds.end(),
            [](const JoinPrediction& a, const JoinPrediction& b) {
              return a.cost.total() < b.cost.total();
            });
  return preds;
}

exec::JoinRightMode Advisor::ChooseJoinMode(
    const JoinModelInput& input) const {
  return RankJoin(input).front().mode;
}

std::string Advisor::ExplainJoin(const JoinModelInput& input) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "join: outer ||L||=%.0f (sf=%.3f, %s) inner ||R||=%.0f\n",
                input.left_key.num_tuples, input.sf,
                input.left_mode == exec::JoinLeftMode::kLate ? "left-late"
                                                             : "left-early",
                input.right_key.num_tuples);
  std::string out = buf;
  if (input.num_workers > 1) {
    std::snprintf(buf, sizeof(buf),
                  "parallel: %d probe workers (probe cpu x%.3f)\n",
                  input.num_workers, ParallelCpuFactor(input.num_workers));
    out += buf;
  }
  if (input.num_workers > 1) {
    out += "build: one serial task, charged in full\n";
  }
  std::vector<JoinPrediction> ranked = RankJoin(input);
  for (size_t i = 0; i < ranked.size(); ++i) {
    const JoinPrediction& p = ranked[i];
    std::snprintf(buf, sizeof(buf),
                  "  %-20s total=%9.2fms  build=%9.2fms  probe=%9.2fms%s\n",
                  JoinRightModeName(p.mode), p.cost.total() / 1000.0,
                  p.build.total() / 1000.0, p.probe.total() / 1000.0,
                  i == 0 ? "  <- chosen" : "");
    out += buf;
  }
  return out;
}

plan::Strategy Advisor::ChooseSelection(
    const SelectionModelInput& input) const {
  return RankSelection(input).front().strategy;
}

plan::Strategy Advisor::ChooseAggregation(const SelectionModelInput& input,
                                          double groups) const {
  return RankAggregation(input, groups).front().strategy;
}

plan::Strategy Advisor::Heuristic(const SelectionModelInput& input,
                                  bool aggregated) {
  const double combined_sf = input.sf1 * input.sf2;
  auto is_lightweight = [](codec::Encoding e) {
    return e == codec::Encoding::kRle || e == codec::Encoding::kDict;
  };
  const bool lightweight_compression =
      is_lightweight(input.col1.encoding) ||
      is_lightweight(input.col2.encoding);
  // "if output data is aggregated, or if the query has low selectivity
  // (highly selective predicates), or if input data is compressed using a
  // light-weight compression technique, a late materialization strategy
  // should be used. Otherwise ... early materialization" (Section 6).
  if (aggregated || combined_sf < 0.1 || lightweight_compression) {
    // Pipelined LM wins when the first predicate is clustered and highly
    // selective (block skipping); parallel otherwise.
    if (input.col1_clustered && input.sf1 < 0.1 &&
        Supported(plan::Strategy::kLmPipelined, input)) {
      return plan::Strategy::kLmPipelined;
    }
    return plan::Strategy::kLmParallel;
  }
  return plan::Strategy::kEmParallel;
}

}  // namespace model
}  // namespace cstore
