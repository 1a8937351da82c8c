#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace gbda::bench {

BenchFlags ParseFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      flags.full = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      Result<int64_t> seed = ParseInt(argv[++i]);
      if (seed.ok()) flags.seed = static_cast<uint64_t>(*seed);
    } else {
      std::fprintf(stderr, "unknown flag: %s (supported: --full, --seed N)\n",
                   argv[i]);
    }
  }
  SetLogLevel(LogLevel::kWarning);  // keep the table output clean
  return flags;
}

bool ParseFlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

bool BoolFlagOrExit(const char* name, const std::string& value) {
  Result<bool> parsed = ParseBool(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad %s value: %s\n", name,
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return *parsed;
}

Result<DatasetProfile> ProfileByName(const std::string& name, double scale) {
  if (name == "fingerprint") return FingerprintProfile(scale);
  if (name == "aids") return AidsProfile(scale);
  if (name == "grec") return GrecProfile(scale);
  if (name == "aasd") return AasdProfile(scale);
  return Status::InvalidArgument("unknown profile: " + name);
}

std::vector<DatasetProfile> RealProfiles(const BenchFlags& flags) {
  std::vector<DatasetProfile> profiles;
  if (flags.full) {
    profiles = {AidsProfile(1.0), FingerprintProfile(1.0), GrecProfile(1.0),
                AasdProfile(1.0)};
  } else {
    profiles = {AidsProfile(0.06), FingerprintProfile(0.08),
                GrecProfile(0.10), AasdProfile(0.008)};
  }
  if (flags.seed != 0) {
    for (DatasetProfile& p : profiles) p.seed = flags.seed;
  }
  return profiles;
}

DatasetProfile SynBenchProfile(bool scale_free, const BenchFlags& flags) {
  DatasetProfile p =
      flags.full
          ? SynProfile(scale_free, {1000, 2000, 5000, 10000, 20000}, 40, 5)
          : SynProfile(scale_free, {100, 200, 500, 1000}, 12, 3);
  if (flags.seed != 0) p.seed = flags.seed;
  return p;
}

Result<Bundle> MakeBundle(DatasetProfile profile, int64_t tau_max,
                          const BenchFlags& flags) {
  Result<GeneratedDataset> dataset = GenerateDataset(profile);
  if (!dataset.ok()) return dataset.status();
  Bundle bundle;
  bundle.dataset = std::make_unique<GeneratedDataset>(std::move(*dataset));
  GbdPriorOptions prior;
  prior.num_sample_pairs = flags.full ? 100000 : 20000;
  Result<std::unique_ptr<ExperimentRunner>> runner =
      ExperimentRunner::Create(bundle.dataset.get(), tau_max, prior);
  if (!runner.ok()) return runner.status();
  bundle.runner = std::move(*runner);
  return Result<Bundle>(std::move(bundle));
}

std::string Cell(double value, int precision) {
  return StrFormat("%.*f", precision, value);
}

std::string TimeCell(double seconds) { return HumanSeconds(seconds); }

void PrintHeader(const std::string& title, const BenchFlags& flags) {
  std::printf("=== %s [%s mode] ===\n", title.c_str(),
              flags.full ? "full/paper-scale" : "quick");
  std::fflush(stdout);
}

}  // namespace gbda::bench
