#include "obs/metrics_registry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace gbda::obs {

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

// Counters and bucket counts are integral; gauges may not be. Emit integral
// doubles without a fractional part so exposition stays exact and stable.
void AppendNumber(std::string* out, double value) {
  if (value == static_cast<double>(static_cast<int64_t>(value))) {
    AppendF(out, "%" PRId64, static_cast<int64_t>(value));
  } else {
    AppendF(out, "%.17g", value);
  }
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

// `name{existing,le="..."}` — merges the point's own labels with the le label.
void AppendBucketSeries(std::string* out, const std::string& name,
                        const std::string& labels, const char* le,
                        uint64_t cumulative) {
  out->append(name);
  out->append("_bucket{");
  if (!labels.empty()) {
    out->append(labels);
    out->push_back(',');
  }
  AppendF(out, "le=\"%s\"} %" PRIu64 "\n", le, cumulative);
}

void RenderHistogramText(std::string* out, const std::string& name,
                         const MetricPoint& point) {
  const Histogram& h = point.histogram;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.buckets()[i] == 0) continue;
    cumulative += h.buckets()[i];
    char le[32];
    std::snprintf(le, sizeof(le), "%" PRIu64, Histogram::BucketUpperBound(i));
    AppendBucketSeries(out, name, point.labels, le, cumulative);
  }
  AppendBucketSeries(out, name, point.labels, "+Inf", h.count());
  const std::string suffix_labels = point.labels.empty() ? "" : "{" + point.labels + "}";
  AppendF(out, "%s_sum%s %" PRIu64 "\n", name.c_str(), suffix_labels.c_str(), h.sum());
  AppendF(out, "%s_count%s %" PRIu64 "\n", name.c_str(), suffix_labels.c_str(), h.count());
}

}  // namespace

void AppendCounterFamily(const std::string& name, const std::string& help,
                         const std::string& labels, double value,
                         std::vector<MetricFamily>* out) {
  MetricPoint point;
  point.labels = labels;
  point.value = value;
  out->push_back(MetricFamily{name, help, MetricType::kCounter, {std::move(point)}});
}

void Gauge::Set(double value) { bits_.store(DoubleBits(value), std::memory_order_relaxed); }

void Gauge::Add(double delta) {
  uint64_t seen = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(seen, DoubleBits(BitsDouble(seen) + delta),
                                      std::memory_order_relaxed)) {
  }
}

double Gauge::Value() const { return BitsDouble(bits_.load(std::memory_order_relaxed)); }

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const std::string& help,
                                                      const std::string& labels,
                                                      MetricType type) {
  const std::string key = name + "\x1f" + labels;
  MutexLock lock(&mutex_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    return it->second->type == type ? it->second : nullptr;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<ConcurrentHistogram>();
      break;
  }
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  by_key_[key] = raw;
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const std::string& help,
                                     const std::string& labels) {
  Entry* entry = FindOrCreate(name, help, labels, MetricType::kCounter);
  return entry == nullptr ? nullptr : entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& help,
                                 const std::string& labels) {
  Entry* entry = FindOrCreate(name, help, labels, MetricType::kGauge);
  return entry == nullptr ? nullptr : entry->gauge.get();
}

ConcurrentHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                   const std::string& help,
                                                   const std::string& labels) {
  Entry* entry = FindOrCreate(name, help, labels, MetricType::kHistogram);
  return entry == nullptr ? nullptr : entry->histogram.get();
}

uint64_t MetricsRegistry::AddCollector(Collector collector) {
  MutexLock lock(&mutex_);
  const uint64_t id = next_collector_id_++;
  collectors_[id] = std::move(collector);
  return id;
}

void MetricsRegistry::RemoveCollector(uint64_t id) {
  MutexLock lock(&mutex_);
  collectors_.erase(id);
}

std::vector<MetricFamily> MetricsRegistry::Snapshot() const {
  std::vector<MetricFamily> families;
  std::vector<Collector> collectors;
  {
    MutexLock lock(&mutex_);
    for (const auto& [id, collector] : collectors_) {
      (void)id;
      collectors.push_back(collector);
    }
    for (const auto& entry : entries_) {
      MetricPoint point;
      point.labels = entry->labels;
      switch (entry->type) {
        case MetricType::kCounter:
          point.value = static_cast<double>(entry->counter->Value());
          break;
        case MetricType::kGauge:
          point.value = entry->gauge->Value();
          break;
        case MetricType::kHistogram:
          point.histogram = entry->histogram->Snapshot();
          break;
      }
      auto it = std::find_if(families.begin(), families.end(),
                             [&](const MetricFamily& f) { return f.name == entry->name; });
      if (it == families.end()) {
        families.push_back(MetricFamily{entry->name, entry->help, entry->type, {}});
        it = std::prev(families.end());
      }
      it->points.push_back(std::move(point));
    }
  }
  // Collectors run outside the registry lock: they snapshot component-owned
  // counters and may take their own locks.
  for (const Collector& collector : collectors) collector(&families);
  std::stable_sort(families.begin(), families.end(),
                   [](const MetricFamily& a, const MetricFamily& b) { return a.name < b.name; });
  // Coalesce same-name families (e.g. two collectors emitting different label
  // sets of one family) so exposition has a single TYPE header per name.
  std::vector<MetricFamily> merged;
  for (MetricFamily& family : families) {
    if (!merged.empty() && merged.back().name == family.name) {
      for (MetricPoint& point : family.points) {
        merged.back().points.push_back(std::move(point));
      }
    } else {
      merged.push_back(std::move(family));
    }
  }
  return merged;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  for (const MetricFamily& family : Snapshot()) {
    if (!family.help.empty()) {
      AppendF(&out, "# HELP %s %s\n", family.name.c_str(), family.help.c_str());
    }
    AppendF(&out, "# TYPE %s %s\n", family.name.c_str(), TypeName(family.type));
    for (const MetricPoint& point : family.points) {
      if (family.type == MetricType::kHistogram) {
        RenderHistogramText(&out, family.name, point);
        continue;
      }
      out.append(family.name);
      if (!point.labels.empty()) {
        out.push_back('{');
        out.append(point.labels);
        out.push_back('}');
      }
      out.push_back(' ');
      AppendNumber(&out, point.value);
      out.push_back('\n');
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::string out = "{";
  bool first_family = true;
  for (const MetricFamily& family : Snapshot()) {
    if (!first_family) out.push_back(',');
    first_family = false;
    AppendJsonString(&out, family.name);
    out.append(":{\"type\":\"");
    out.append(TypeName(family.type));
    out.append("\",\"points\":[");
    bool first_point = true;
    for (const MetricPoint& point : family.points) {
      if (!first_point) out.push_back(',');
      first_point = false;
      out.append("{\"labels\":");
      AppendJsonString(&out, point.labels);
      if (family.type == MetricType::kHistogram) {
        const Histogram& h = point.histogram;
        AppendF(&out,
                ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                ",\"max\":%" PRIu64 ",\"mean\":%.6f,\"p50\":%" PRIu64 ",\"p99\":%" PRIu64
                ",\"p999\":%" PRIu64 "}",
                h.count(), h.sum(), h.min(), h.max(), h.Mean(), h.Quantile(0.50),
                h.Quantile(0.99), h.Quantile(0.999));
      } else {
        out.append(",\"value\":");
        AppendNumber(&out, point.value);
        out.push_back('}');
      }
    }
    out.append("]}");
  }
  out.push_back('}');
  return out;
}

}  // namespace gbda::obs
