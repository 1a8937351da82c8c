#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace gbda::obs {

/// Monotone counter sharded across cacheline-padded per-thread slots.
/// Add() is a single relaxed fetch_add on the caller's slot — no shared
/// cacheline between writer threads, no lock ever. Value() sums the slots
/// and is exact once writers quiesce (and a consistent lower bound while
/// they run, since each slot is itself monotone).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    slots_[internal::ThreadSlot(kSlots)].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) total += slot.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zeroes all slots. Callers must quiesce writers first; an Add racing a
  /// Reset may land before or after the zeroing.
  void Reset() {
    for (Slot& slot : slots_) slot.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kSlots = 16;
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  std::array<Slot, kSlots> slots_{};
};

/// Last-write-wins double-valued gauge (single atomic; Set is a store,
/// Add is a CAS loop — gauges are updated rarely, off the hot path).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value);
  void Add(double delta);
  double Value() const;

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of the double
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One labeled sample within a family: scalar value for counters/gauges,
/// a full histogram snapshot for histograms.
struct MetricPoint {
  std::string labels;  // Prometheus label body, e.g. `stage="queue"`; may be empty
  double value = 0.0;
  Histogram histogram;
};

/// All points sharing a metric name (Prometheus exposition groups by family).
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<MetricPoint> points;
};

/// Appends a one-point counter family — the shape every component
/// collector (services, servers) emits for each of its counters.
void AppendCounterFamily(const std::string& name, const std::string& help,
                         const std::string& labels, double value,
                         std::vector<MetricFamily>* out);

/// Process-wide metrics registry. Get*() registers (or finds) an instrument
/// keyed by (name, labels) and returns a pointer that stays valid for the
/// registry's lifetime, so hot paths capture the pointer once and never touch
/// the registry mutex again. Components that own their counters (services,
/// servers) publish through collectors instead: a collector is invited to
/// append families at every Snapshot()/render, and unregisters on shutdown.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance used by gbda_serverd's exposition endpoint.
  static MetricsRegistry& Global();

  /// Find-or-create. Returns nullptr if (name, labels) already exists with a
  /// different metric type.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  ConcurrentHistogram* GetHistogram(const std::string& name, const std::string& help,
                                    const std::string& labels = "");

  using Collector = std::function<void(std::vector<MetricFamily>*)>;
  uint64_t AddCollector(Collector collector);
  void RemoveCollector(uint64_t id);

  /// Owned instruments plus collector output, grouped into families sorted by
  /// name (points in registration/emission order within a family).
  std::vector<MetricFamily> Snapshot() const;

  /// Prometheus text exposition format (HELP/TYPE headers, cumulative
  /// `_bucket{le=...}` series over non-empty buckets plus +Inf, `_sum` and
  /// `_count` for histograms).
  std::string RenderPrometheus() const;

  /// The same snapshot as a JSON object keyed by family name; histograms
  /// carry count/sum/min/max/mean and p50/p99/p999.
  std::string RenderJson() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    std::string labels;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<ConcurrentHistogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& help,
                      const std::string& labels, MetricType type)
      GBDA_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  /// Entries are append-only; the instrument pointers handed out by Get*()
  /// stay valid (and are internally synchronized) outside the lock — the
  /// guard covers only the container structure.
  std::vector<std::unique_ptr<Entry>> entries_ GBDA_GUARDED_BY(mutex_);
  // key = name + "\x1f" + labels
  std::map<std::string, Entry*> by_key_ GBDA_GUARDED_BY(mutex_);
  std::map<uint64_t, Collector> collectors_ GBDA_GUARDED_BY(mutex_);
  uint64_t next_collector_id_ GBDA_GUARDED_BY(mutex_) = 1;
};

/// RAII registration of a collector into a registry (commonly Global()).
/// Default-constructed handles are inert; the collector is removed on
/// destruction, so a component can safely expose metrics for exactly its
/// own lifetime.
class CollectorHandle {
 public:
  CollectorHandle() = default;
  CollectorHandle(MetricsRegistry* registry, MetricsRegistry::Collector collector)
      : registry_(registry), id_(registry->AddCollector(std::move(collector))) {}
  ~CollectorHandle() { Release(); }

  CollectorHandle(CollectorHandle&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
  }
  CollectorHandle& operator=(CollectorHandle&& other) noexcept {
    if (this != &other) {
      Release();
      registry_ = other.registry_;
      id_ = other.id_;
      other.registry_ = nullptr;
    }
    return *this;
  }
  CollectorHandle(const CollectorHandle&) = delete;
  CollectorHandle& operator=(const CollectorHandle&) = delete;

  void Release() {
    if (registry_ != nullptr) registry_->RemoveCollector(id_);
    registry_ = nullptr;
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace gbda::obs
