#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "datagen/dataset_profiles.h"
#include "eval/experiment.h"

namespace gbda::bench {

/// Command-line switches shared by every table/figure binary:
///   --full     paper-scale parameters (minutes to hours);
///   --seed N   override the dataset seed (a bad N exits 2).
/// The default "quick" mode shrinks dataset sizes so the whole suite runs in
/// a few minutes while preserving the comparative shapes.
struct BenchFlags {
  bool full = false;
  uint64_t seed = 0;  // 0 = profile default
};

BenchFlags ParseFlags(int argc, char** argv);

/// `--name=value` matcher shared by the serving benches' flag parsers:
/// returns true and fills `value` when `arg` is `<name>=<value>`.
bool ParseFlagValue(const char* arg, const char* name, std::string* value);

/// A 0|1|true|false flag value (common ParseBool); anything else prints the
/// error and exits 2, so a mistyped switch never silently turns on.
bool BoolFlagOrExit(const char* name, const std::string& value);

/// Numeric flag values, parsed whole (common ParseUint / ParseInt /
/// ParseDouble): an empty value, trailing text, a sign on an unsigned value,
/// a value past `max` or a non-finite double prints the error naming the
/// flag and exits 2, never a silent 0 or a truncation.
uint64_t UintFlagOrExit(const char* name, const std::string& value,
                        uint64_t max = UINT64_MAX);
int64_t IntFlagOrExit(const char* name, const std::string& value);
double DoubleFlagOrExit(const char* name, const std::string& value);
/// The --scale value of a dataset profile: DoubleFlagOrExit, and also > 0.
/// A scale of zero or below would size the corpus from a wrapped or empty
/// graph count, so it exits 2 as well.
double ScaleFlagOrExit(const std::string& value);

/// A comma-separated list flag, each element parsed as a double or as an
/// unsigned integer of type T by the helpers above, so one bad element
/// exits 2 like a bad scalar.
template <typename T>
std::vector<T> ListFlagOrExit(const char* name, const std::string& csv) {
  std::vector<T> out;
  for (const std::string& item : Split(csv, ',', /*keep_empty=*/true)) {
    if constexpr (std::is_floating_point_v<T>) {
      out.push_back(DoubleFlagOrExit(name, item));
    } else {
      out.push_back(static_cast<T>(UintFlagOrExit(name, item)));
    }
  }
  return out;
}

/// Table III profile by CLI name ("fingerprint" | "aids" | "grec" |
/// "aasd") at the given scale; fails on unknown names.
Result<DatasetProfile> ProfileByName(const std::string& name, double scale);

/// The four Table III dataset profiles at quick or paper scale.
std::vector<DatasetProfile> RealProfiles(const BenchFlags& flags);

/// Syn-1 (scale-free) / Syn-2 (random) profiles. Quick mode uses subset
/// sizes {100, 200, 500, 1000}; full mode {1000, 2000, 5000, 10000, 20000}
/// (the paper goes to 100K; see docs/BENCHMARKS.md for the scaling note).
DatasetProfile SynBenchProfile(bool scale_free, const BenchFlags& flags);

/// Generated dataset + ready experiment runner. The dataset lives on the
/// heap so the runner's pointer into it survives moves of the Bundle.
struct Bundle {
  std::unique_ptr<GeneratedDataset> dataset;
  std::unique_ptr<ExperimentRunner> runner;
};

/// Generates the dataset and builds the offline index (timing recorded in
/// runner->offline_costs()).
Result<Bundle> MakeBundle(DatasetProfile profile, int64_t tau_max,
                          const BenchFlags& flags);

/// "12.3 us" / "4.56 ms" — consistent time formatting for table cells.
std::string Cell(double value, int precision = 3);
std::string TimeCell(double seconds);

/// Prints the standard bench header (mode, dataset sizes).
void PrintHeader(const std::string& title, const BenchFlags& flags);

}  // namespace gbda::bench
