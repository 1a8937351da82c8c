#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <ctime>

#include "common/kernels.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "obs/trace.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::mutex g_log_mutex;

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Wrong(const std::string& what) {
  const uint64_t n = wrong_.fetch_add(1);
  if (n < 5) {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
  }
}

void Report::Error(const std::string& what) {
  errors_.fetch_add(1);
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "perfbench: error: %s\n", what.c_str());
}

std::string Report::ResultJson(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() && !errored() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Value& v = metrics_.at(names[i]);
    if (i > 0) out += ", ";
    out += JsonString(names[i]) + ": {\"value\": " + JsonNumber(v.value) +
           ", \"unit\": " + JsonString(v.unit) + "}";
  }
  return out + "}}";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int64_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, int64_t parent,
                       uint64_t request_id) {
  if (!active()) return -1;
  SpanRecord span;
  span.name = name;
  span.start_ns = SinceEpochNs(start);
  span.end_ns = SinceEpochNs(end);
  span.parent = parent;
  span.request_id = request_id;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t id, Clock::time_point end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<size_t>(id) < spans_.size()) {
    spans_[static_cast<size_t>(id)].end_ns = SinceEpochNs(end);
  }
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimesUsLocked(const std::string& name) const {
  // Children's intervals, clipped to the parent and merged, are subtracted
  // from the parent's duration.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans_.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (name != s.name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& env_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::map<std::string, size_t> names;
  for (const SpanRecord& s : spans_) ++names[s.name];
  out << "{\"env\": " << env_json << ",\n\"summary\": {";
  bool first = true;
  for (const auto& [name, count] : names) {
    double total = 0.0;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
    }
    double self = 0.0;
    for (double v : SelfTimesUsLocked(name)) self += v;
    out << (first ? "" : ",") << "\n  " << JsonString(name)
        << ": {\"count\": " << count
        << ", \"total_us\": " << JsonNumber(total / 1e3)
        << ", \"self_us\": " << JsonNumber(self) << "}";
    first = false;
  }
  out << "},\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n  {\"id\": " << i
        << ", \"name\": " << JsonString(s.name) << ", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent
        << ", \"request_id\": " << s.request_id << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void SetTracing(Tracer* tracer, bool on) {
  tracer->set_active(on);
  gbda::obs::TraceConfig config;
  config.enabled = on;
  gbda::obs::SetTraceConfig(config);
}

bool RepeatSetUp(const RunConfig& config, Tracer* tracer, Report* report,
                 const std::function<double()>& set_up) {
  std::vector<double> setups;
  double total = 0.0;
  while (setups.empty() ||
         (!config.trace &&
          (setups.size() < 3 || (setups.size() < 9 && total < 1.5)))) {
    tracer->set_active(config.trace);
    setups.push_back(set_up());
    tracer->set_active(false);
    if (report->errored()) return false;
    total += setups.back();
  }
  report->Set("setup_s", Median(setups), "s");
  return true;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

gbda::GeneratedDataset Generate(gbda::DatasetProfile profile, uint64_t seed,
                                Report* report) {
  profile.seed = seed;
  gbda::Result<gbda::GeneratedDataset> dataset = gbda::GenerateDataset(profile);
  if (!dataset.ok()) {
    report->Error("dataset: " + dataset.status().ToString());
    return gbda::GeneratedDataset();
  }
  return std::move(*dataset);
}

gbda::GbdaIndexOptions IndexOptionsFor(const gbda::DatasetProfile& profile) {
  gbda::GbdaIndexOptions options;
  options.tau_max = 10;
  options.gbd_prior.num_sample_pairs = 2000;
  options.model_vertex_labels = static_cast<int64_t>(profile.num_vertex_labels);
  options.model_edge_labels = static_cast<int64_t>(profile.num_edge_labels);
  return options;
}

std::vector<gbda::SearchResult> SerialAnswers(
    const gbda::GeneratedDataset& data, const gbda::SearchOptions& options,
    std::optional<size_t> top_k, Report* report) {
  gbda::Result<gbda::GbdaIndex> index =
      gbda::GbdaIndex::Build(data.db, IndexOptionsFor(data.profile));
  if (!index.ok()) {
    report->Error("reference index: " + index.status().ToString());
    return {};
  }
  gbda::GbdaSearch search(&data.db, &*index);
  std::vector<gbda::SearchResult> out;
  for (const gbda::Graph& q : data.queries) {
    gbda::Result<gbda::SearchResult> r =
        top_k ? search.QueryTopK(q, *top_k, options) : search.Query(q, options);
    if (!r.ok()) {
      report->Error("reference query: " + r.status().ToString());
      return {};
    }
    out.push_back(std::move(*r));
  }
  return out;
}

double ReferenceF1(const std::vector<gbda::SearchResult>& refs,
                   const gbda::GeneratedDataset& data) {
  gbda::Confusion confusion;
  for (size_t q = 0; q < refs.size(); ++q) {
    std::vector<size_t> ids;
    for (const gbda::SearchMatch& m : refs[q].matches) ids.push_back(m.graph_id);
    confusion += gbda::CompareSets(ids, data.TrueMatches(q, kTauHat));
  }
  return gbda::F1Score(confusion);
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed, uint64_t salt,
                                size_t length) {
  std::vector<size_t> out;
  if (n == 0) return out;
  gbda::Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  std::vector<size_t> pass(n);
  while (out.size() < length) {
    for (size_t i = 0; i < n; ++i) pass[i] = i;
    for (size_t i = n - 1; i > 0; --i) {
      const size_t j =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)));
      std::swap(pass[i], pass[j]);
    }
    for (size_t i = 0; i < n && out.size() < length; ++i) {
      out.push_back(pass[i]);
    }
  }
  return out;
}

gbda::GraphDatabase SubDatabase(const gbda::GraphDatabase& db,
                                const std::vector<size_t>& ids) {
  gbda::GraphDatabase out;
  out.vertex_labels() = db.vertex_labels();
  out.edge_labels() = db.edge_labels();
  for (size_t id : ids) out.Add(db.graph(id));
  return out;
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string CacheSizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = ReadFirstLine(dir + "size");
    if (size.empty()) break;
    if (!out.empty()) out += " ";
    out += "L" + ReadFirstLine(dir + "level") + ReadFirstLine(dir + "type")
                     .substr(0, 1) + "=" + size;
  }
  return out.empty() ? "unknown" : out;
}

std::mutex g_sizes_mutex;
std::vector<std::pair<std::string, size_t>> g_sizes;

std::atomic<bool> g_tamper_armed{false};

}  // namespace

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void NoteCorpusSize(const std::string& name, size_t value) {
  std::lock_guard<std::mutex> lock(g_sizes_mutex);
  g_sizes.emplace_back(name, value);
}

std::vector<std::pair<std::string, size_t>> CorpusSizes() {
  std::lock_guard<std::mutex> lock(g_sizes_mutex);
  return g_sizes;
}

std::string EnvJson(const RunConfig& config,
                    const std::vector<std::pair<std::string, size_t>>& sizes) {
  const char* forced = std::getenv("GBDA_FORCE_SCALAR_KERNELS");
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(config.workload)
      << ", \"seed\": " << config.seed
      << ", \"seconds\": " << JsonNumber(config.seconds)
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"caches\": " << JsonString(CacheSizes())
#if defined(__clang__)
      << ", \"compiler\": " << JsonString(std::string("clang ") + __clang_version__)
#elif defined(__GNUC__)
      << ", \"compiler\": " << JsonString(std::string("gcc ") + __VERSION__)
#else
      << ", \"compiler\": \"unknown\""
#endif
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"kernel_dispatch\": "
      << JsonString(gbda::KernelImplName(
             gbda::ResolveKernels(gbda::KernelDispatch::kAuto)))
      << ", \"GBDA_FORCE_SCALAR_KERNELS\": "
      << JsonString(forced == nullptr ? "unset" : forced)
      << ", \"corpus\": {";
  for (size_t i = 0; i < sizes.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(sizes[i].first) << ": "
        << sizes[i].second;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Answer check
// ---------------------------------------------------------------------------

std::string DiffAnswers(const std::vector<gbda::SearchMatch>& got,
                        uint64_t got_candidates, uint64_t got_prefiltered,
                        const gbda::SearchResult& want) {
  if (got_candidates != want.candidates_evaluated) {
    return "candidates_evaluated " + std::to_string(got_candidates) + " vs " +
           std::to_string(want.candidates_evaluated);
  }
  if (got_prefiltered != want.prefiltered_out) {
    return "prefiltered_out " + std::to_string(got_prefiltered) + " vs " +
           std::to_string(want.prefiltered_out);
  }
  if (got.size() != want.matches.size()) {
    return "match count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.matches.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const gbda::SearchMatch& a = got[i];
    const gbda::SearchMatch& b = want.matches[i];
    if (a.graph_id != b.graph_id || a.gbd != b.gbd ||
        std::memcmp(&a.phi_score, &b.phi_score, sizeof(double)) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "match %zu: (id %zu, gbd %lld, phi %.17g) vs (id %zu, "
                    "gbd %lld, phi %.17g)",
                    i, a.graph_id, static_cast<long long>(a.gbd), a.phi_score,
                    b.graph_id, static_cast<long long>(b.gbd), b.phi_score);
      return buf;
    }
  }
  return std::string();
}

void ArmTamper(bool armed) { g_tamper_armed.store(armed); }

void MaybeTamper(std::vector<gbda::SearchMatch>* matches) {
  if (matches->empty() || !g_tamper_armed.load(std::memory_order_relaxed)) {
    return;
  }
  if (g_tamper_armed.exchange(false)) {
    uint64_t bits = 0;
    std::memcpy(&bits, &(*matches)[0].phi_score, sizeof(bits));
    bits ^= 1;
    std::memcpy(&(*matches)[0].phi_score, &bits, sizeof(bits));
  }
}

}  // namespace perfbench
