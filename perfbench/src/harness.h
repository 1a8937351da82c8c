// Shared pieces of the repository benchmark (perfbench/README.md): the run
// configuration, seeded inputs, statistics, the span recorder used by traced
// runs, the deterministic-field answer check and the result line.
//
// Every workload reaches the library only through public module headers;
// nothing here reaches into src/ internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "graph/graph_database.h"

namespace gbda {
struct ServiceStats;
}  // namespace gbda

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}
/// CPU time (user + system) in seconds: of every thread of this process,
/// and of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  /// Self-test only: corrupt one timed answer so the check must trip.
  bool tamper = false;
  /// Scratch directory for artifacts and the trace file (inside the
  /// checkout).
  std::string work_dir;
};

/// Every workload uses this serving shape: 2 service threads, one server
/// worker, at most 2 load-generating connections.
inline constexpr size_t kServiceThreads = 2;
inline constexpr size_t kConnections = 2;
/// Similarity threshold of every workload and of the F1 ground truth.
inline constexpr int64_t kTauHat = 5;
inline constexpr size_t kTopK = 10;

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

/// Collects the named metrics, the attempted/failed counts and the verdict
/// of the answer check. Thread-safe for Wrong()/AddAttempted()/AddFailed().
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const { return metrics_.at(name).value; }

  /// Records a wrong answer: the run is incorrect. The first few are logged
  /// to stderr with `what`.
  void Wrong(const std::string& what);
  /// Records a setup or I/O error that prevents a valid measurement.
  void Error(const std::string& what);

  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  bool correct() const { return wrong_.load() == 0; }
  bool errored() const { return errors_.load() != 0; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  /// with the metrics `names`, in that order.
  std::string ResultJson(const std::vector<std::string>& names) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> wrong_{0};
  std::atomic<uint64_t> errors_{0};
};

// ---------------------------------------------------------------------------
// Tracing: spans the benchmark records around its own calls into a module's
// public functions. Kept in memory, written out when the run ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the parent span, -1 for a root
  uint64_t request_id = 0;
};

class Tracer {
 public:
  /// Spans are recorded only while active (traced runs switch it on for
  /// their traced half).
  void set_active(bool active) { active_.store(active); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Records a finished span; returns its index, or -1 when inactive.
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent = -1,
                 uint64_t request_id = 0);
  /// Opens a span whose children are recorded before it ends (possibly on
  /// another thread); Close sets its end. -1 when inactive.
  int64_t Open(const char* name, Clock::time_point start, int64_t parent = -1,
               uint64_t request_id = 0) {
    return Record(name, start, start, parent, request_id);
  }
  void Close(int64_t id, Clock::time_point end);

  /// Durations (microseconds) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes every span plus a per-name summary as JSON: count, total
  /// microseconds and self microseconds (a span's duration minus the part of
  /// it its child spans cover).
  bool WriteJson(const std::string& path, const std::string& env_json) const;

 private:
  int64_t SinceEpochNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  std::vector<double> SelfTimesUsLocked(const std::string& name) const;

  const Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Switches the traced half on or off: the benchmark's own spans and the
/// program's tracing (obs::SetTraceConfig) together.
void SetTracing(Tracer* tracer, bool on);

/// Runs `set_up`, which builds a fresh serving stack and returns the seconds
/// to its first correct answer: once in a traced run, with spans recorded;
/// in an untraced run at least 3 times, and up to 9 while they total under
/// 1.5 s. Sets setup_s to their median. False when set-up hit an error.
bool RepeatSetUp(const RunConfig& config, Tracer* tracer, Report* report,
                 const std::function<double()>& set_up);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Inputs: everything derives from the seed argument.
// ---------------------------------------------------------------------------

/// Generates `profile` with its dataset seed taken from the run seed.
gbda::GeneratedDataset Generate(gbda::DatasetProfile profile, uint64_t seed,
                                Report* report);

/// The offline-stage options gbda_serverd uses for a generated profile.
gbda::GbdaIndexOptions IndexOptionsFor(const gbda::DatasetProfile& profile);

/// The reference answers: serial GbdaSearch over a fresh in-memory index of
/// data.db, one per query in data.queries order. Top-`top_k` rankings, or
/// threshold answers when top_k is empty. Empty (and an error reported) on
/// failure.
std::vector<gbda::SearchResult> SerialAnswers(
    const gbda::GeneratedDataset& data, const gbda::SearchOptions& options,
    std::optional<size_t> top_k, Report* report);

/// F1 of the reference answer sets (refs[q] answers data.queries[q]) against
/// the ground truth at tau_hat.
double ReferenceF1(const std::vector<gbda::SearchResult>& refs,
                   const gbda::GeneratedDataset& data);

/// `length` indices into [0, n) in a seeded order: a fresh shuffle of all n
/// per pass. `salt` separates the orders one run draws (query streams, the
/// churn workload's graph order).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed, uint64_t salt,
                                size_t length);

/// A database holding db's graphs `ids` (in that order) with db's label
/// dictionaries.
gbda::GraphDatabase SubDatabase(const gbda::GraphDatabase& db,
                                const std::vector<size_t>& ids);

/// Peak (VmHWM) and current (VmRSS) resident set of this process, MiB.
double PeakRssMb();
double CurrentRssMb();
/// Restarts the peak at the current resident set, so rss_mb covers set-up
/// and serving but not the reference answers computed before them.
void ResetPeakRss();

/// The environment block attached to every result (one JSON object).
std::string EnvJson(const RunConfig& config,
                    const std::vector<std::pair<std::string, size_t>>& sizes);

// ---------------------------------------------------------------------------
// Answer check on deterministic fields only: ids, phi_score and gbd bit
// patterns, candidates_evaluated and prefiltered_out. pruned_by_bound,
// verified_count and candidates_visited vary with shard timing and are not
// compared.
// ---------------------------------------------------------------------------

/// Returns an empty string when equal, else what differs.
std::string DiffAnswers(const std::vector<gbda::SearchMatch>& got,
                        uint64_t got_candidates, uint64_t got_prefiltered,
                        const gbda::SearchResult& want);

/// Self-test hook: when armed (--tamper), corrupts the phi of the first
/// non-empty answer passed here, exactly once per run.
void ArmTamper(bool armed);
void MaybeTamper(std::vector<gbda::SearchMatch>* matches);

// ---------------------------------------------------------------------------
// Per-layer replay of the `core` and `common` layers: the workload's queries
// run serially through PrepareScan / ScanRange with one PosteriorEngine.
// ---------------------------------------------------------------------------

struct ReplaySpec {
  const gbda::IndexReader* index = nullptr;
  gbda::CorpusRef corpus{static_cast<const gbda::GraphDatabase*>(nullptr)};
  const gbda::Prefilter* prefilter = nullptr;  // top-k bound profiles
  gbda::SearchOptions options;
  bool apply_gamma = true;  // false: ranking scan for the top kTopK
};

/// Sets core.prepare_scan_us, core.scan_us, core.scan_ns_per_candidate,
/// core.phi_memo_hit_ratio and common.intersect_ns_per_key. Each replayed
/// answer must equal `want[i]` (checked).
void ReplayCore(const ReplaySpec& spec, const std::vector<gbda::Graph>& queries,
                const std::vector<const gbda::SearchResult*>& want,
                Report* report);

/// Sets obs.trace_overhead_pct: the traced half's median latency against
/// the untraced half's.
void ReportTraceOverhead(const std::vector<double>& untraced_us,
                         const std::vector<double>& traced_us, Report* report);

/// Sets service.candidates_per_query, service.pruned_fraction and
/// service.verified_fraction from a service's counters.
void ReportServiceStats(const gbda::ServiceStats& stats, Report* report);

/// Sets core.build_s, core.branch_s, core.gbd_prior_s, core.ged_prior_s
/// (from OfflineCosts) and core.columns_ms (first columns() call).
void ReportOfflineCosts(const gbda::GbdaIndex& index, double build_seconds,
                        Report* report);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void RunWireTopK(const RunConfig& config, Tracer* tracer, Report* report);
void RunScanThreshold(const RunConfig& config, Tracer* tracer, Report* report);
void RunDynamicChurn(const RunConfig& config, Tracer* tracer, Report* report);
void RunApproxTopK(const RunConfig& config, Tracer* tracer, Report* report);

/// Corpus sizes of the run, for the environment block (set by workloads).
void NoteCorpusSize(const std::string& name, size_t value);
std::vector<std::pair<std::string, size_t>> CorpusSizes();

}  // namespace perfbench
