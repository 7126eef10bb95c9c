// Strategy advisor: the paper's motivating use of the analytical model —
// "Using an analytical model to predict query performance can facilitate
// materialization strategy decision-making" (Section 6). Given the query's
// statistics it ranks strategies by predicted cost and can explain the
// choice via the paper's closing heuristic.

#ifndef CSTORE_MODEL_ADVISOR_H_
#define CSTORE_MODEL_ADVISOR_H_

#include <string>
#include <vector>

#include "model/cost_model.h"

namespace cstore {
namespace model {

struct StrategyPrediction {
  plan::Strategy strategy;
  Cost cost;
  bool supported = true;  // false where the planner refuses to build it
};

struct JoinPrediction {
  exec::JoinRightMode mode;
  Cost cost;   // total at the input's worker count
  Cost build;  // the serial build phase (never discounted by workers)
  Cost probe;  // the probe phase before the parallel CPU discount
};

class Advisor {
 public:
  explicit Advisor(CostParams params) : params_(params) {}

  const CostParams& params() const { return params_; }

  /// Predictions for all four strategies, sorted by ascending total cost
  /// (unsupported strategies last).
  std::vector<StrategyPrediction> RankSelection(
      const SelectionModelInput& input) const;
  std::vector<StrategyPrediction> RankAggregation(
      const SelectionModelInput& input, double groups) const;
  /// ORDER BY [LIMIT] on top of the selection: every strategy's selection
  /// cost plus the two-phase sort term (PredictSort).
  std::vector<StrategyPrediction> RankSort(const SelectionModelInput& input,
                                           double limit) const;

  /// Predictions for the three inner-table join representations, sorted by
  /// ascending total cost.
  std::vector<JoinPrediction> RankJoin(const JoinModelInput& input) const;

  /// The cheapest supported strategy.
  plan::Strategy ChooseSelection(const SelectionModelInput& input) const;
  plan::Strategy ChooseAggregation(const SelectionModelInput& input,
                                   double groups) const;

  /// The cheapest inner-table representation for the join.
  exec::JoinRightMode ChooseJoinMode(const JoinModelInput& input) const;

  /// The paper's closing rule of thumb (Section 6), independent of the
  /// model: late materialization if the output is aggregated, the query is
  /// highly selective, or the inputs use light-weight compression; early
  /// materialization otherwise.
  static plan::Strategy Heuristic(const SelectionModelInput& input,
                                  bool aggregated);

  /// Human-readable report: every strategy's predicted CPU/I/O split plus
  /// the inputs the prediction used. The optimizer-facing "EXPLAIN" view.
  std::string ExplainSelection(const SelectionModelInput& input) const;
  std::string ExplainAggregation(const SelectionModelInput& input,
                                 double groups) const;
  /// Join report: per-mode totals with the build/probe split. The build is
  /// one serial task, charged in full at every worker count.
  std::string ExplainJoin(const JoinModelInput& input) const;
  /// Sort report: per-strategy totals including the run-formation + merge
  /// term, with the sort phase shown separately.
  std::string ExplainSort(const SelectionModelInput& input,
                          double limit) const;

 private:
  CostParams params_;
};

}  // namespace model
}  // namespace cstore

#endif  // CSTORE_MODEL_ADVISOR_H_
