// wire_topk: open-loop top-k queries (k = 10, tau_hat = 5) over loopback TCP
// against an in-process GbdaServer in front of a GbdaService built in memory,
// as gbda_serverd does. Corpus: full AIDS profile (1,896 graphs, 100
// queries). It is the only workload that crosses `net`, and because top-k
// pruning skips most scoring, codec, admission, batching and fan-out are a
// large share of each request.
//
// The untraced run offers a fixed 300 queries/s over two connections for
// the whole measured phase (7,500 queries in a 25 s run); the traced run
// adds the SLO ladder (net.max_qps_at_slo: p99 <= 10 ms, nothing refused or
// late). Latency is timed from each request's scheduled send time.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "harness.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "service/gbda_service.h"

namespace perfbench {
namespace {

namespace net = gbda::net;

constexpr double kFixedRate = 300.0;
constexpr double kSloP99Us = 10000.0;
constexpr double kCoarseStep = 1.25;
constexpr double kLadderStep = 1.05;

struct Inputs {
  const gbda::GeneratedDataset* data = nullptr;
  std::vector<size_t> stream;              // query index per sequence number
  std::vector<gbda::SearchResult> refs;    // serial GbdaSearch, per query
  gbda::SearchOptions options;
};

/// Destroyed in reverse order: the server shuts down before the service
/// and index it serves go away.
struct Serving {
  std::unique_ptr<gbda::GbdaIndex> index;
  std::unique_ptr<gbda::GbdaService> service;
  std::unique_ptr<net::GbdaServer> server;
  std::vector<net::GbdaClient> clients;
};

net::TopKRequest MakeRequest(const Inputs& in, uint64_t seq) {
  net::TopKRequest req;
  req.request_id = seq;
  req.k = kTopK;
  req.options = in.options;
  req.query = in.data->queries[in.stream[seq % in.stream.size()]];
  return req;
}

/// Checks one kOk response against the serial reference of its query.
void CheckResponse(const Inputs& in, net::TopKResponse* resp, Report* report) {
  MaybeTamper(&resp->matches);
  const size_t q = in.stream[resp->request_id % in.stream.size()];
  const std::string diff =
      DiffAnswers(resp->matches, resp->candidates_evaluated,
                  resp->prefiltered_out, in.refs[q]);
  if (!diff.empty()) {
    report->Wrong("wire request " + std::to_string(resp->request_id) +
                  " (query " + std::to_string(q) + "): " + diff);
  }
}

/// Outcome of one open-loop step.
struct Step {
  std::vector<double> latency_us;  // kOk, from the scheduled send time
  std::vector<double> lag_us;      // actual send - scheduled send
  std::vector<double> rtt_us;      // send -> response frame
  // Server stage spans carried by every v3 TopKResponse (kOk only).
  std::vector<double> admission_us, queue_us, batch_us, scan_us, outside_us,
      batch_size;
  uint64_t sent = 0, ok = 0, refused = 0, late = 0, errors = 0;
  bool io_failed = false;
  double client_cpu_s = 0.0;  // CPU of the load generator's threads

  void Merge(const Step& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&latency_us, o.latency_us);
    cat(&lag_us, o.lag_us);
    cat(&rtt_us, o.rtt_us);
    cat(&admission_us, o.admission_us);
    cat(&queue_us, o.queue_us);
    cat(&batch_us, o.batch_us);
    cat(&scan_us, o.scan_us);
    cat(&outside_us, o.outside_us);
    cat(&batch_size, o.batch_size);
    sent += o.sent;
    ok += o.ok;
    refused += o.refused;
    late += o.late;
    errors += o.errors;
    io_failed = io_failed || o.io_failed;
    client_cpu_s += o.client_cpu_s;
  }
  uint64_t not_served() const { return refused + late + errors; }
};

/// Files one response into `out`; `sched` is its scheduled send time and
/// `sent` its actual send time.
void Account(const Inputs& in, net::TopKResponse* resp, Clock::time_point sched,
             Clock::time_point sent, Clock::time_point received, Step* out,
             Report* report) {
  switch (resp->status) {
    case net::WireStatus::kOk: {
      ++out->ok;
      out->latency_us.push_back(SecondsBetween(sched, received) * 1e6);
      const double rtt = SecondsBetween(sent, received) * 1e6;
      out->rtt_us.push_back(rtt);
      const double stages = static_cast<double>(
          resp->admission_micros + resp->queue_micros + resp->batch_micros +
          resp->scan_micros);
      out->admission_us.push_back(static_cast<double>(resp->admission_micros));
      out->queue_us.push_back(static_cast<double>(resp->queue_micros));
      out->batch_us.push_back(static_cast<double>(resp->batch_micros));
      out->scan_us.push_back(static_cast<double>(resp->scan_micros));
      out->outside_us.push_back(rtt - stages);
      out->batch_size.push_back(static_cast<double>(resp->batch_size));
      CheckResponse(in, resp, report);
      break;
    }
    case net::WireStatus::kOverloaded:
    case net::WireStatus::kShuttingDown:
      ++out->refused;
      break;
    case net::WireStatus::kDeadlineExceeded:
      ++out->late;
      break;
    default:
      ++out->errors;
      break;
  }
}

/// Open loop at `rate` queries/s for `duration` seconds, split evenly over
/// the connections; each connection pipelines its sends on a fixed
/// timetable and a receiver thread matches responses by request id.
Step OpenLoop(Serving* s, double rate, double duration, uint64_t* next_seq,
              const Inputs& in, Tracer* tracer, Report* report) {
  const size_t conns = s->clients.size();
  const double interval = static_cast<double>(conns) / rate;
  const size_t per_conn = std::max<size_t>(
      1, static_cast<size_t>(duration * rate / static_cast<double>(conns)));
  const uint64_t base = *next_seq;
  *next_seq += per_conn * conns;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);

  std::vector<Step> parts(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Step& out = parts[c];
      net::GbdaClient& client = s->clients[c];
      auto sched = [&](size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            interval * (static_cast<double>(i) +
                                        static_cast<double>(c) /
                                            static_cast<double>(conns))));
      };
      std::vector<std::atomic<int64_t>> sent_at(per_conn);
      std::vector<std::atomic<int64_t>> root_span(per_conn);
      std::atomic<size_t> num_sent{0};
      std::atomic<bool> send_failed{false};

      double receiver_cpu_s = 0.0;
      std::thread receiver([&] {
        const double cpu0 = ThreadCpuSeconds();
        for (size_t got = 0; got < per_conn; ++got) {
          if (send_failed.load() && got >= num_sent.load()) break;
          gbda::Result<net::Frame> frame = client.ReadFrame();
          const Clock::time_point received = Clock::now();
          if (!frame.ok()) {
            out.io_failed = true;
            break;
          }
          gbda::Result<net::TopKResponse> resp =
              net::DecodeTopKResponse(frame->payload);
          const Clock::time_point decoded = Clock::now();
          const uint64_t id = resp.ok() ? resp->request_id : 0;
          if (!resp.ok() || id < base || (id - base) % conns != c ||
              (id - base) / conns >= per_conn) {
            out.io_failed = true;
            break;
          }
          const size_t i = static_cast<size_t>((id - base) / conns);
          const int64_t root = root_span[i].load();
          tracer->Record("net.decode", received, decoded, root, id);
          const Clock::time_point sent =
              Clock::time_point(Clock::duration(sent_at[i].load()));
          Account(in, &*resp, sched(i), sent, received, &out, report);
          tracer->Close(root, Clock::now());
        }
        receiver_cpu_s = ThreadCpuSeconds() - cpu0;
      });

      // Sender-side results stay local until the receiver has joined. The
      // sender sleeps with the least timer slack, so that it is not late by
      // the default 50 us the open-loop clock would charge to the request.
      // (Spinning before each send instead slowed the server's scan.)
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::vector<double> lag_us;
      uint64_t sent = 0;
      bool send_io_failed = false;
      const double sender_cpu0 = ThreadCpuSeconds();
      for (size_t i = 0; i < per_conn; ++i) {
        const uint64_t seq = base + i * conns + c;
        const Clock::time_point due = sched(i);
        std::this_thread::sleep_until(due);
        const Clock::time_point a0 = Clock::now();
        lag_us.push_back(SecondsBetween(due, a0) * 1e6);
        const int64_t root = tracer->Open("wire.request", a0, -1, seq);
        root_span[i].store(root);
        const std::string bytes = net::EncodeTopKRequest(MakeRequest(in, seq));
        const Clock::time_point a1 = Clock::now();
        tracer->Record("net.encode", a0, a1, root, seq);
        sent_at[i].store(a1.time_since_epoch().count());
        const gbda::Status st = client.SendBytes(bytes);
        tracer->Record("net.send", a1, Clock::now(), root, seq);
        if (!st.ok()) {
          send_io_failed = true;
          send_failed.store(true);
          break;
        }
        ++sent;
        num_sent.store(i + 1);
      }
      const double sender_cpu_s = ThreadCpuSeconds() - sender_cpu0;
      receiver.join();
      out.client_cpu_s = sender_cpu_s + receiver_cpu_s;
      out.lag_us = std::move(lag_us);
      out.sent = sent;
      out.io_failed = out.io_failed || send_io_failed;
    });
  }
  for (std::thread& t : threads) t.join();
  Step all;
  for (const Step& p : parts) all.Merge(p);
  return all;
}

bool MeetsSlo(const Step& step) {
  return !step.io_failed && step.not_served() == 0 &&
         static_cast<double>(step.ok) >= 0.99 * static_cast<double>(step.sent) &&
         Quantile(step.latency_us, 0.99) <= kSloP99Us;
}

/// The SLO ladder: the offered rate steps up from the fixed rate, by 25 %
/// until a step misses the SLO, then by 5 % from the last rate that met it.
/// A missed step is retried once, so one stall of the shared machine cannot
/// end the search. Returns the highest rate that met the SLO (0 if none).
double SloLadder(Serving* s, double seconds, uint64_t* seq, const Inputs& in,
                 Tracer* tracer, Report* report) {
  const Clock::time_point start = Clock::now();
  auto meets = [&](double rate, double step_seconds) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Step step = OpenLoop(s, rate, step_seconds, seq, in, tracer, report);
      report->AddAttempted(step.sent);
      if (MeetsSlo(step)) return true;
    }
    return false;
  };
  auto time_left = [&] { return seconds - SecondsSince(start); };
  double best = 0.0;
  double rate = kFixedRate;
  const double coarse_seconds = 0.05 * seconds;
  if (meets(rate, coarse_seconds)) best = rate;
  while (best > 0 && time_left() > 2 * coarse_seconds &&
         meets(rate * kCoarseStep, coarse_seconds)) {
    rate *= kCoarseStep;
    best = rate;
  }
  const double fine_seconds = 0.1 * seconds;
  while (best > 0 && time_left() > 2 * fine_seconds &&
         meets(rate * kLadderStep, fine_seconds)) {
    rate *= kLadderStep;
    best = rate;
  }
  return best;
}

/// Untimed warm-up: every distinct query twice, alternating connections, so
/// the lazily warmed per-worker posterior engines are warm before timing.
void WarmUp(Serving* s, uint64_t* next_seq, const Inputs& in, Report* report) {
  const size_t n = 2 * in.data->queries.size();
  for (size_t i = 0; i < n; ++i) {
    gbda::Result<net::TopKResponse> resp =
        s->clients[i % s->clients.size()].QueryTopK(
            MakeRequest(in, (*next_seq)++));
    if (!resp.ok() || resp->status != net::WireStatus::kOk) {
      report->Error("warm-up query failed");
      return;
    }
    CheckResponse(in, &*resp, report);
  }
}

/// Builds index + service + server, connects the clients and returns the
/// seconds to the first correct answer.
double SetUp(const gbda::GeneratedDataset& data, const Inputs& in,
             Serving* s, Tracer* tracer, Report* report) {
  const Clock::time_point t0 = Clock::now();
  gbda::Result<gbda::GbdaIndex> built =
      gbda::GbdaIndex::Build(data.db, IndexOptionsFor(data.profile));
  if (!built.ok()) {
    report->Error("index: " + built.status().ToString());
    return 0.0;
  }
  const Clock::time_point t1 = Clock::now();
  tracer->Record("core.GbdaIndex::Build", t0, t1);
  s->index = std::make_unique<gbda::GbdaIndex>(std::move(*built));
  if (tracer->active()) {
    ReportOfflineCosts(*s->index, SecondsBetween(t0, t1), report);
  }

  gbda::ServiceOptions service_options;
  service_options.num_threads = kServiceThreads;
  gbda::Result<std::unique_ptr<gbda::GbdaService>> service =
      gbda::GbdaService::Create(&data.db, s->index.get(), service_options);
  if (!service.ok()) {
    report->Error("service: " + service.status().ToString());
    return 0.0;
  }
  s->service = std::move(*service);

  net::ServerConfig config;
  config.num_workers = 1;
  gbda::Result<std::unique_ptr<net::GbdaServer>> server =
      net::GbdaServer::Serve(s->service.get(), config);
  if (!server.ok()) {
    report->Error("server: " + server.status().ToString());
    return 0.0;
  }
  s->server = std::move(*server);
  for (size_t c = 0; c < kConnections; ++c) {
    gbda::Result<net::GbdaClient> client =
        net::GbdaClient::Connect("127.0.0.1", s->server->port());
    if (!client.ok()) {
      report->Error("connect: " + client.status().ToString());
      return 0.0;
    }
    s->clients.push_back(std::move(*client));
  }
  // The first answer: sequence number 0 of the stream.
  gbda::Result<net::TopKResponse> first =
      s->clients[0].QueryTopK(MakeRequest(in, 0));
  if (!first.ok() || first->status != net::WireStatus::kOk) {
    report->Error("first query failed");
    return 0.0;
  }
  CheckResponse(in, &*first, report);
  const double seconds = SecondsSince(t0);
  tracer->Record("setup.wire_topk", t0, Clock::now());
  return seconds;
}

void ReportStepLayers(const Step& step, Report* report) {
  report->Set("net.rtt_p50_us", Median(step.rtt_us), "us");
  report->Set("net.admission_p50_us", Median(step.admission_us), "us");
  report->Set("net.queue_p50_us", Median(step.queue_us), "us");
  report->Set("net.batch_p50_us", Median(step.batch_us), "us");
  report->Set("net.scan_p50_us", Median(step.scan_us), "us");
  report->Set("net.outside_spans_p50_us", Median(step.outside_us), "us");
  report->Set("net.mean_batch_size", Mean(step.batch_size), "count");
  report->Set("net.generator_lag_p99_us", Quantile(step.lag_us, 0.99), "us");
}

}  // namespace

void RunWireTopK(const RunConfig& config, Tracer* tracer, Report* report) {
  const gbda::GeneratedDataset data =
      Generate(gbda::AidsProfile(1.0), config.seed, report);
  if (report->errored()) return;
  NoteCorpusSize("graphs", data.db.size());
  NoteCorpusSize("queries", data.queries.size());

  Inputs in;
  in.data = &data;
  in.options.tau_hat = kTauHat;
  in.stream = SeededOrder(data.queries.size(), config.seed, 1,
                          data.queries.size() * 64);
  in.refs = SerialAnswers(data, in.options, kTopK, report);
  if (report->errored()) return;

  ResetPeakRss();

  // Set-up, repeated; the last one serves the measured phase.
  std::unique_ptr<Serving> serving;
  if (!RepeatSetUp(config, tracer, report, [&] {
        serving.reset();
        serving = std::make_unique<Serving>();
        return SetUp(data, in, serving.get(), tracer, report);
      })) {
    return;
  }
  uint64_t seq = 1;
  WarmUp(serving.get(), &seq, in, report);
  if (report->errored()) return;
  ArmTamper(config.tamper);

  if (!config.trace) {
    // The whole measured phase at the fixed rate. CPU per query is the
    // serving side's: the load generator's own threads are subtracted.
    const double cpu0 = ProcessCpuSeconds();
    const Step fixed = OpenLoop(serving.get(), kFixedRate, config.seconds, &seq,
                                in, tracer, report);
    const double cpu = ProcessCpuSeconds() - cpu0 - fixed.client_cpu_s;
    report->AddAttempted(fixed.sent);
    report->AddFailed(fixed.not_served());
    if (fixed.io_failed) report->Error("connection failed at the fixed rate");
    report->Set("rss_mb", PeakRssMb(), "MiB");
    report->Set("query_p50_ms", Median(fixed.latency_us) / 1e3, "ms");
    report->Set("cpu_ms_per_query",
                fixed.ok == 0 ? 0.0 : cpu * 1e3 / static_cast<double>(fixed.ok),
                "ms");
  } else {
    // Untraced then traced quarter at the fixed rate (the gap is the
    // tracing overhead), then the SLO ladder in the remaining half.
    const Step plain = OpenLoop(serving.get(), kFixedRate, config.seconds / 4,
                                &seq, in, tracer, report);
    serving->service->ResetStats();
    const net::WireServerStats before = serving->server->stats();
    SetTracing(tracer, true);
    const Step traced = OpenLoop(serving.get(), kFixedRate, config.seconds / 4,
                                 &seq, in, tracer, report);
    SetTracing(tracer, false);
    const net::WireServerStats after = serving->server->stats();
    report->AddAttempted(plain.sent + traced.sent);
    report->AddFailed(plain.not_served() + traced.not_served());

    ReportStepLayers(traced, report);
    report->Set("service.query_p99_ms", Quantile(plain.latency_us, 0.99) / 1e3,
                "ms");
    report->Set("net.encode_us", Mean(tracer->DurationsUs("net.encode")), "us");
    report->Set("net.decode_us", Mean(tracer->DurationsUs("net.decode")), "us");
    report->Set("net.queue_depth_peak",
                static_cast<double>(after.queue_depth_peak), "count");
    report->Set("net.rejected",
                static_cast<double>(after.rejected_overloaded +
                                    after.rejected_deadline -
                                    before.rejected_overloaded -
                                    before.rejected_deadline),
                "count");
    const gbda::ServiceStats stats = serving->service->stats();
    ReportServiceStats(stats, report);
    report->Set("service.call_us",
                stats.batches_served == 0
                    ? 0.0
                    : stats.total_wall_seconds * 1e6 /
                          static_cast<double>(stats.batches_served),
                "us");
    ReportTraceOverhead(plain.latency_us, traced.latency_us, report);
    report->Set("net.max_qps_at_slo",
                SloLadder(serving.get(), config.seconds / 2, &seq, in, tracer,
                          report),
                "queries/s");

    // Core replay over the distinct queries, with the profiles the pruned
    // ranking scan reads (built here, timed as core.prefilter_ms).
    const Clock::time_point p0 = Clock::now();
    const gbda::Prefilter prefilter(&data.db);
    report->Set("core.prefilter_ms", SecondsSince(p0) * 1e3, "ms");
    ReplaySpec spec;
    spec.index = serving->index.get();
    spec.corpus = gbda::CorpusRef(&data.db);
    spec.prefilter = &prefilter;
    spec.options = in.options;
    spec.apply_gamma = false;
    std::vector<const gbda::SearchResult*> want;
    for (const gbda::SearchResult& r : in.refs) want.push_back(&r);
    ReplayCore(spec, data.queries, want, report);
    // F1 of the top-10 answer sets against the ground truth at tau_hat.
    report->Set("core.f1", ReferenceF1(in.refs, data), "ratio");
  }
  report->Set("recall_at_10", 1.0, "ratio");  // exact answers, checked above
}

}  // namespace perfbench
