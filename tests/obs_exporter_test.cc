// Tests of the HTTP scrape endpoint (src/obs/exporter.h) over real sockets:
// the three routes, 404 handling, and monotone counter readings across
// scrapes taken while a writer thread is live.

#include "obs/exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "obs/metrics_registry.h"

namespace gbda::obs {
namespace {

// Blocking one-shot HTTP/1.0 GET against 127.0.0.1:port; returns the whole
// response (status line + headers + body) or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Parses the value of a `name N` exposition line out of a scrape body.
uint64_t ScrapeValue(const std::string& body, const std::string& name) {
  const size_t at = body.find("\n" + name + " ");
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(body.c_str() + at + 1 + name.size() + 1, nullptr, 10);
}

TEST(MetricsExporterTest, ServesAllRoutesOnEphemeralPort) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total", "help")->Add(9);
  ConcurrentHistogram* hist = registry.GetHistogram("test_latency", "help");
  hist->Record(10);
  hist->Record(2000);

  auto exporter = MetricsExporter::Start(&registry, ExporterOptions{});
  ASSERT_TRUE(exporter.ok()) << exporter.status().message();
  const uint16_t port = (*exporter)->port();
  ASSERT_NE(port, 0);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("test_requests_total 9"), std::string::npos);
  EXPECT_NE(metrics.find("test_latency_count 2"), std::string::npos);
  EXPECT_NE(metrics.find("le=\"+Inf\""), std::string::npos);

  const std::string json = HttpGet(port, "/metrics.json");
  EXPECT_NE(json.find("200"), std::string::npos);
  EXPECT_NE(json.find("\"test_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);

  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(MetricsExporterTest, CounterReadingsAreMonotoneUnderConcurrentWrites) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("live_total", "help");

  auto exporter = MetricsExporter::Start(&registry, ExporterOptions{});
  ASSERT_TRUE(exporter.ok()) << exporter.status().message();
  const uint16_t port = (*exporter)->port();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) counter->Increment();
  });
  // The writer may not have been scheduled yet (a loaded or single-core
  // host). Wait, bounded, for its first increment so the final
  // EXPECT_GT(previous, 0) tests the exporter rather than the scheduler.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter->Value() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  uint64_t previous = 0;
  for (int scrape = 0; scrape < 5; ++scrape) {
    const std::string body = HttpGet(port, "/metrics");
    const uint64_t value = ScrapeValue(body, "live_total");
    ASSERT_NE(value, UINT64_MAX) << body;
    EXPECT_GE(value, previous);
    previous = value;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(previous, 0u);

  // After the writer quiesces the scrape is exact.
  const uint64_t settled =
      ScrapeValue(HttpGet(port, "/metrics"), "live_total");
  EXPECT_EQ(settled, counter->Value());
}

TEST(MetricsExporterTest, StopIsIdempotentAndRefusesFurtherConnections) {
  MetricsRegistry registry;
  auto exporter = MetricsExporter::Start(&registry, ExporterOptions{});
  ASSERT_TRUE(exporter.ok()) << exporter.status().message();
  const uint16_t port = (*exporter)->port();
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  (*exporter)->Stop();
  (*exporter)->Stop();
  EXPECT_TRUE(HttpGet(port, "/healthz").empty());
}

}  // namespace
}  // namespace gbda::obs
