// Calibrator: measures the model's CPU constants on the present machine,
// following the paper's methodology — "running the small segments of code
// that only performed the variable in question" (Section 3.7). SEEK/READ
// come from the DiskModel configuration (the simulated 2006 disk), since
// real I/O on this machine is page-cache speed.

#ifndef CSTORE_MODEL_CALIBRATE_H_
#define CSTORE_MODEL_CALIBRATE_H_

#include "model/cost_params.h"
#include "storage/disk_model.h"

namespace cstore {
namespace model {

class Calibrator {
 public:
  struct Options {
    // Elements per measurement loop; higher = less noise, more time.
    size_t loop_size = 1 << 22;
    // Measurement repetitions (minimum taken).
    int repetitions = 3;
  };

  Calibrator() : options_(Options()) {}
  explicit Calibrator(Options options) : options_(options) {}

  /// Measures BIC, TIC_TUP, TIC_COL and FC; SEEK/READ/PF are copied from
  /// `disk` (zero I/O cost when disk simulation is off).
  CostParams Run(const storage::DiskModel& disk) const;

  /// The process's constants: the CPU constants are measured once, on the
  /// first call, as each constant's median over a few quick runs, so every
  /// session (and every advisor pick) in one process prices plans alike;
  /// SEEK/READ/PF come from `disk` on every call. Thread-safe.
  static CostParams ForProcess(const storage::DiskModel& disk);

  // Individual probes (microseconds per call), exposed for tests.
  double MeasureFunctionCall() const;
  double MeasureColumnIter() const;
  double MeasureTupleIter() const;
  double MeasureBlockIter() const;

 private:
  Options options_;
};

}  // namespace model
}  // namespace cstore

#endif  // CSTORE_MODEL_CALIBRATE_H_
