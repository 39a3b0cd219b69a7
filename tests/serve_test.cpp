// Tests for the resident scenario service: protocol framing round-trips,
// RequestOptions precedence, served-vs-direct result equality for every
// registry scenario, warm-cache behavior across requests, concurrent-
// client coalescing (via the obs cache counters), and the protocol-error
// paths (malformed, oversized, wrong version) that must never take the
// server down.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/request.h"
#include "scenario/result.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace pg::serve {
namespace {

#ifdef PG_OBS_DISABLED
constexpr bool kObs = false;
#else
constexpr bool kObs = true;
#endif

// --------------------------------------------------------------- protocol

TEST(ProtocolTest, RequestHeaderRoundTrips) {
  RequestHeader header;
  header.request_id = "abc.DEF_01-x";
  header.priority = 3;
  header.deadline_ms = 2500;
  header.body_bytes = 1234;
  const RequestHeader parsed =
      parse_request_header(format_request_header(header));
  EXPECT_EQ(parsed.major, kProtocolMajor);
  EXPECT_EQ(parsed.minor, kProtocolMinor);
  EXPECT_EQ(parsed.request_id, header.request_id);
  EXPECT_EQ(parsed.priority, header.priority);
  EXPECT_EQ(parsed.deadline_ms, header.deadline_ms);
  EXPECT_EQ(parsed.body_bytes, header.body_bytes);
}

TEST(ProtocolTest, ResponseHeaderRoundTrips) {
  ResponseHeader header;
  header.request_id = "r1";
  header.status = "error";
  header.body_bytes = 77;
  const ResponseHeader parsed =
      parse_response_header(format_response_header(header));
  EXPECT_EQ(parsed.request_id, "r1");
  EXPECT_EQ(parsed.status, "error");
  EXPECT_EQ(parsed.body_bytes, 77u);
}

TEST(ProtocolTest, UnknownKeysAreIgnoredForMinorGrowth) {
  const RequestHeader parsed = parse_request_header(
      "PGSERVE/1.9 req id=x len=5 shiny_new_knob=7 priority=2");
  EXPECT_EQ(parsed.minor, 9);
  EXPECT_EQ(parsed.body_bytes, 5u);
  EXPECT_EQ(parsed.priority, 2u);
}

TEST(ProtocolTest, UnsupportedMajorStillParsesSoServerCanResync) {
  const RequestHeader parsed = parse_request_header("PGSERVE/9.0 req id=a len=3");
  EXPECT_EQ(parsed.major, 9);
  EXPECT_EQ(parsed.body_bytes, 3u);
}

TEST(ProtocolTest, MalformedHeadersThrow) {
  EXPECT_THROW((void)parse_request_header("GET / HTTP/1.1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_header("PGSERVE/1.0 rsp id=a len=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_header("PGSERVE/1.0 req id=a"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_header("PGSERVE/1.0 req id=bad/id len=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_header("PGSERVE/1.0 req id=a len=nope"),
               std::invalid_argument);
}

// --------------------------------------------------------- RequestOptions

TEST(RequestOptionsTest, RegistryNameAndOverridePrecedence) {
  scenario::RequestOptions request;
  request.scenario = "fig1";
  request.overrides = {{"instances", "200"}, {"instances", "300"}};
  const scenario::ScenarioSpec spec = request.resolve();
  EXPECT_EQ(spec.kind, "pure_sweep");
  EXPECT_EQ(spec.instances, 300u);  // last override wins
}

TEST(RequestOptionsTest, SpecTextWithSweepAppend) {
  scenario::RequestOptions request;
  request.spec_text =
      "kind = pure_sweep\nsweep = epochs=10,20\n";
  request.overrides = {{"sweep+", "seed=1,2"}, {"threads", "1"}};
  const scenario::ScenarioSpec spec = request.resolve();
  ASSERT_EQ(spec.sweeps.size(), 2u);  // appended, not replaced
  EXPECT_EQ(spec.threads, 1u);
}

TEST(RequestOptionsTest, RejectsAmbiguousAndEmptySources) {
  scenario::RequestOptions both;
  both.scenario = "fig1";
  both.spec_text = "kind = pure_sweep\n";
  EXPECT_THROW((void)both.resolve(), std::invalid_argument);
  EXPECT_THROW((void)scenario::RequestOptions{}.resolve(),
               std::invalid_argument);
}

// ----------------------------------------------------------- live server

/// Shrinks a registry spec so all nine scenarios round-trip in test
/// time; values must match between the served and direct runs, which is
/// all the equality assertions need.
scenario::ScenarioSpec shrink(scenario::ScenarioSpec spec) {
  spec.set("instances", "240");
  spec.set("epochs", "8");
  spec.set("replications", "1");
  spec.set("sweep_steps", "3");
  spec.set("draws", "1");
  spec.set("support_min", "1");
  spec.set("support_max", "2");
  spec.set("solver_grid", "24");
  spec.set("solver_iterations", "200");
  spec.set("timing_reps", "1");
  spec.set("real_corpus", "false");
  return spec;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(std::random_device{}());
    dir_ = (std::filesystem::temp_directory_path() /
            ("pg_serve_test_" + std::to_string(rng())))
               .string();
    std::filesystem::create_directories(dir_ + "/cache");
    options_.socket_path = dir_ + "/serve.sock";
    options_.threads = 2;
    options_.request_workers = 2;
    options_.cache_dir = dir_ + "/cache";
  }

  void Start() {
    server_ = std::make_unique<ScenarioServer>(options_);
    server_->start();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] Client Connect() {
    return Client::connect_retry(options_.socket_path, 15000);
  }

  std::string dir_;
  ServeOptions options_;
  std::unique_ptr<ScenarioServer> server_;
};

TEST_F(ServeTest, EveryRegistryScenarioMatchesDirectRun) {
  Start();
  Client client = Connect();
  for (const scenario::ScenarioSpec& entry :
       scenario::ScenarioRegistry::instance().entries()) {
    const scenario::ScenarioSpec spec = shrink(entry);
    const Client::Response response = client.request(spec.to_text());
    ASSERT_TRUE(response.ok()) << entry.name << ": " << response.body;

    // Direct run with the same execution envelope the server forces
    // (separate cache dir: cache traffic is diff-excluded anyway).
    scenario::ScenarioSpec direct_spec = spec;
    direct_spec.set("threads", "2");
    direct_spec.set("cache_dir", dir_ + "/cache_direct");
    const scenario::ScenarioResult direct =
        scenario::run_scenario(direct_spec);
    std::ostringstream direct_json;
    scenario::write_json(direct, direct_json);

    // Tolerance 0: the served run must be BIT-identical, and the diff
    // unwraps the response envelope on the candidate side.
    scenario::DiffOptions diff_options;
    diff_options.tolerance = 0.0;
    const scenario::ResultDiff diff =
        scenario::diff_results(scenario::parse_json(direct_json.str()),
                               scenario::parse_json(response.body),
                               diff_options);
    EXPECT_TRUE(diff.clean()) << entry.name << " served != direct";
  }
  EXPECT_EQ(server_->requests_served(),
            scenario::ScenarioRegistry::instance().entries().size());
}

TEST_F(ServeTest, SecondRequestIsServedWarm) {
  Start();
  Client client = Connect();
  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));

  const Client::Response cold = client.request(spec.to_text());
  ASSERT_TRUE(cold.ok()) << cold.body;
  const scenario::JsonValue cold_doc = scenario::parse_json(cold.body);
  const scenario::JsonValue* cold_cache =
      cold_doc.find("result")->find("cache");
  ASSERT_NE(cold_cache, nullptr);
  EXPECT_GT(cold_cache->find("cells_retrained")->number, 0.0);

  const Client::Response warm = client.request(spec.to_text());
  ASSERT_TRUE(warm.ok()) << warm.body;
  const scenario::JsonValue warm_doc = scenario::parse_json(warm.body);
  const scenario::JsonValue* warm_cache =
      warm_doc.find("result")->find("cache");
  ASSERT_NE(warm_cache, nullptr);
  // The whole point of a resident service: the second request reuses the
  // first one's shards and retrains NOTHING.
  EXPECT_EQ(warm_cache->find("cells_retrained")->number, 0.0);
  EXPECT_GT(warm_cache->find("cache_hits")->number, 0.0);
}

TEST_F(ServeTest, ConcurrentClientsCoalesceSharedCells) {
  Start();
  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  const std::string text = spec.to_text();

  // Counters are process-wide; take deltas around the burst.
  const std::uint64_t stores_before =
      obs::counter("obs.cache.stores").value();
  const std::uint64_t retrains_before =
      obs::counter("obs.cache.retrains").value();

  // Two clients request the SAME cold scenario at once. The shrunk fig1
  // run has one clean-baseline cell plus 3 sweep cells x 3 sub-keys;
  // single-flight claims must compute (and store) each exactly once no
  // matter how the two requests interleave.
  std::atomic<std::size_t> failures{0};
  std::vector<std::size_t> retrained(2, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      Client client = Client::connect_retry(options_.socket_path, 15000);
      const Client::Response response = client.request(text);
      if (!response.ok()) {
        failures.fetch_add(1);
        return;
      }
      const scenario::JsonValue doc = scenario::parse_json(response.body);
      retrained[i] = static_cast<std::size_t>(
          doc.find("result")->find("cache")->find("cells_retrained")->number);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);

  // Per-run reports must sum to one cold run's worth, the baseline and
  // the 3 sweep cells.
  EXPECT_EQ(retrained[0] + retrained[1], 4u);
  if (kObs) {
    const std::uint64_t stores =
        obs::counter("obs.cache.stores").value() - stores_before;
    const std::uint64_t retrains =
        obs::counter("obs.cache.retrains").value() - retrains_before;
    // The baseline, its test-positive-fraction sibling and 3 sweep cells
    // with 3 sub-keys each: every value stored exactly once, and retrains
    // counts exactly the computations the runs report.
    EXPECT_EQ(stores, 11u);
    EXPECT_EQ(retrains, retrained[0] + retrained[1]);
  }
}

TEST_F(ServeTest, WrongMajorVersionGetsStructuredErrorAndConnectionLives) {
  Start();
  Client client = Connect();
  const std::string body = "abc";
  const std::string frame =
      "PGSERVE/9.0 req id=wrong-major len=" + std::to_string(body.size()) +
      "\n" + body;
  write_all(client.fd(), frame.data(), frame.size());
  std::string line;
  ASSERT_TRUE(read_line(client.fd(), line, kMaxHeaderBytes));
  const ResponseHeader header = parse_response_header(line);
  EXPECT_EQ(header.status, "error");
  EXPECT_EQ(header.request_id, "wrong-major");
  std::string envelope(header.body_bytes, '\0');
  ASSERT_TRUE(read_exact(client.fd(), envelope.data(), envelope.size()));
  EXPECT_NE(envelope.find("unsupported_protocol"), std::string::npos);

  // Same connection still serves a good request afterwards.
  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  const Client::Response ok = client.request(spec.to_text());
  EXPECT_TRUE(ok.ok()) << ok.body;
}

TEST_F(ServeTest, MalformedHeaderClosesConnectionButNotServer) {
  Start();
  {
    Client client = Connect();
    const std::string garbage = "GET /makefile HTTP/1.1\n\n";
    write_all(client.fd(), garbage.data(), garbage.size());
    std::string line;
    ASSERT_TRUE(read_line(client.fd(), line, kMaxHeaderBytes));
    const ResponseHeader header = parse_response_header(line);
    EXPECT_EQ(header.status, "error");
    std::string envelope(header.body_bytes, '\0');
    ASSERT_TRUE(read_exact(client.fd(), envelope.data(), envelope.size()));
    EXPECT_NE(envelope.find("bad_request"), std::string::npos);
    // The connection is closed after an unsyncable error.
    EXPECT_FALSE(read_line(client.fd(), line, kMaxHeaderBytes));
  }
  // A fresh connection works: the server survived.
  Client client = Connect();
  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  EXPECT_TRUE(client.request(spec.to_text()).ok());
}

TEST_F(ServeTest, OversizedBodyIsRejectedAndStreamStaysFramed) {
  options_.max_request_bytes = 1024;
  Start();
  Client client = Connect();
  const std::string big(5000, 'x');
  RequestHeader meta;
  meta.request_id = "too-big";
  const Client::Response rejected = client.request(big, meta);
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.body.find("oversized"), std::string::npos);

  // The server consumed the oversized body, so the next frame parses.
  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  EXPECT_TRUE(client.request(spec.to_text()).ok());
}

TEST_F(ServeTest, BadSpecsAnswerStructuredErrorsAndServerStaysUp) {
  Start();
  Client client = Connect();

  const Client::Response invalid = client.request("definitely not = a spec =");
  EXPECT_FALSE(invalid.ok());
  EXPECT_NE(invalid.body.find("invalid_spec"), std::string::npos);

  const Client::Response unknown_kind =
      client.request("kind = not_a_kind\n");
  EXPECT_FALSE(unknown_kind.ok());
  // Kind validation happens at execution time, inside the engine.
  EXPECT_NE(unknown_kind.body.find("execution_failed"), std::string::npos);

  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  EXPECT_TRUE(client.request(spec.to_text()).ok());
}

TEST_F(ServeTest, PerRequestTraceIsForcedOffByServerOverrides) {
  Start();
  Client client = Connect();
  scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  spec.set("trace", dir_ + "/sneaky_trace.json");
  // The server's trailing overrides force trace="" (the owner controls
  // the tracer), so this succeeds instead of tripping the engine check.
  const Client::Response response = client.request(spec.to_text());
  EXPECT_TRUE(response.ok()) << response.body;
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/sneaky_trace.json"));
}

TEST_F(ServeTest, CompareUnwrapsOkEnvelopeAndRejectsErrorEnvelope) {
  Start();
  Client client = Connect();
  const scenario::ScenarioSpec spec =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  const Client::Response a = client.request(spec.to_text());
  const Client::Response b = client.request(spec.to_text());
  ASSERT_TRUE(a.ok() && b.ok());

  // Envelope vs envelope: both sides unwrap.
  scenario::DiffOptions diff_options;
  diff_options.tolerance = 0.0;
  const scenario::ResultDiff diff = scenario::diff_results(
      scenario::parse_json(a.body), scenario::parse_json(b.body),
      diff_options);
  EXPECT_TRUE(diff.clean());

  // An error envelope has no result: comparing it must throw, not diff.
  const Client::Response error = client.request("kind = not_a_kind\n");
  ASSERT_FALSE(error.ok());
  EXPECT_THROW((void)scenario::diff_results(scenario::parse_json(a.body),
                                            scenario::parse_json(error.body),
                                            diff_options),
               std::invalid_argument);
}

TEST_F(ServeTest, StalesSocketIsReplacedAndLiveSocketRefused) {
  Start();
  // A second server on the SAME path must refuse: the first is live.
  ServeOptions second = options_;
  ScenarioServer other(second);
  EXPECT_THROW(other.start(), std::invalid_argument);

  // Stop the first server (removes the socket), leave a stale file.
  server_->stop();
  server_.reset();
  { std::ofstream stale(options_.socket_path); }
  ScenarioServer third(options_);
  EXPECT_THROW(third.start(), std::invalid_argument);  // not a socket
  std::filesystem::remove(options_.socket_path);
}

TEST_F(ServeTest, QueuedRequestForDeadClientIsCancelledNotComputed) {
  // One worker: client A occupies it with a slow request, client B
  // enqueues behind A and hangs up. At dequeue the worker must detect
  // the dead socket and cancel (obs.serve.cancelled) instead of burning
  // the compute on a reply nobody can read. With obs compiled out
  // nothing tells when A was dequeued, so only A's reply and the
  // server's survival are checked.
  options_.request_workers = 1;
  Start();

  scenario::ScenarioSpec slow =
      shrink(scenario::ScenarioRegistry::instance().make("fig1"));
  slow.set("instances", "6000");
  slow.set("epochs", "60");
  slow.set("sweep_steps", "4");
  slow.set("replications", "2");  // ~1s: plenty to park B behind it

  const std::uint64_t cancelled_before =
      obs::counter("obs.serve.cancelled").value();
  const std::uint64_t dequeues_before =
      obs::timer("obs.serve.queue_wait").stats().count;

  std::atomic<bool> a_ok{false};
  // A jthread joins on every exit path, a failed ASSERT's return too.
  std::jthread a([&] {
    Client client = Client::connect_retry(options_.socket_path, 15000);
    const Client::Response response = client.request(slow.to_text());
    a_ok.store(response.ok());
  });

  // Wait until the worker has DEQUEUED A (queue_wait samples once per
  // dequeue) -- from here it is busy for A's full runtime.
  if (kObs) {
    for (int i = 0; i < 15000; ++i) {
      if (obs::timer("obs.serve.queue_wait").stats().count > dequeues_before)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(obs::timer("obs.serve.queue_wait").stats().count,
              dequeues_before);
  }

  {
    // B: frame a valid request, then hang up without reading the reply.
    Client b = Client::connect_retry(options_.socket_path, 15000);
    const std::string body =
        shrink(scenario::ScenarioRegistry::instance().make("fig1")).to_text();
    RequestHeader header;
    header.request_id = "dead-client";
    header.body_bytes = body.size();
    const std::string frame = format_request_header(header) + body;
    write_all(b.fd(), frame.data(), frame.size());
  }  // ~Client closes the socket while the request is still queued

  a.join();
  EXPECT_TRUE(a_ok.load());

  // The worker reaches B right after A; give it a bounded moment.
  if (kObs) {
    for (int i = 0; i < 15000; ++i) {
      if (obs::counter("obs.serve.cancelled").value() > cancelled_before)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(obs::counter("obs.serve.cancelled").value(),
              cancelled_before + 1);
  }

  // The server survives and still answers live clients.
  Client check = Connect();
  const Client::Response response = check.request(
      shrink(scenario::ScenarioRegistry::instance().make("fig1")).to_text());
  EXPECT_TRUE(response.ok());
}

}  // namespace
}  // namespace pg::serve
