// pg_bench_serve: closed-loop load generator for the pg_serve daemon.
//
// Spins up N client threads, each issuing M back-to-back requests for
// the same (small) scenario spec, and reports throughput plus the
// latency distribution as JSON -- the committed snapshot lives at
// bench/snapshots/BENCH_serve.json. By default the benchmark self-hosts
// a server in-process on a private socket (so the numbers are
// reproducible without a running daemon); point --socket at a live
// server to measure that instead. One warmup request is issued first so
// the measured window is cache-warm -- the steady state a resident
// service exists to provide. A self-hosted server's cache dir is removed
// on exit.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/cli.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"

namespace {

constexpr const char* kDefaultSpec =
    "name = serve_bench\n"
    "kind = pure_sweep\n"
    "instances = 200\n"
    "epochs = 10\n"
    "sweep_steps = 3\n"
    "replications = 1\n"
    "real_corpus = false\n";

struct Options {
  std::string socket_path;  // empty = self-host
  std::size_t clients = 4;
  std::size_t requests = 8;
  std::string spec_file;
  std::size_t threads = 0;  // self-hosted server width
  std::string out_file;
};

std::string usage() {
  return
      "pg_bench_serve -- closed-loop load generator for pg_serve\n"
      "  --socket PATH   target a running daemon (default: self-host)\n"
      "  --clients N     concurrent client threads (default 4)\n"
      "  --requests M    requests per client (default 8)\n"
      "  --spec FILE     spec to request (default: a small pure_sweep)\n"
      "  --threads N     self-hosted server executor width (default 0)\n"
      "  --out PATH      write the JSON report there (default stdout)\n";
}

std::size_t parse_size(const std::string& value, const std::string& flag) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  PG_CHECK(!value.empty() && end != nullptr && *end == '\0',
           flag + " expects a non-negative integer, got '" + value + "'");
  return static_cast<std::size_t>(n);
}

Options parse_args(const std::vector<std::string>& args) {
  Options options;
  const auto value = [&](std::size_t& i, const std::string& flag) {
    PG_CHECK(i + 1 < args.size(), flag + " requires a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    } else if (arg == "--socket") {
      options.socket_path = value(i, arg);
    } else if (arg == "--clients") {
      options.clients = parse_size(value(i, arg), arg);
    } else if (arg == "--requests") {
      options.requests = parse_size(value(i, arg), arg);
    } else if (arg == "--spec") {
      options.spec_file = value(i, arg);
    } else if (arg == "--threads") {
      options.threads = parse_size(value(i, arg), arg);
    } else if (arg == "--out") {
      options.out_file = value(i, arg);
    } else {
      PG_CHECK(false, "unknown argument: " + arg + "\n" + usage());
    }
  }
  PG_CHECK(options.clients >= 1 && options.requests >= 1,
           "--clients and --requests must be >= 1");
  return options;
}

/// Removes the self-hosted server's cache dir when it goes out of scope,
/// on the error path too. Declared before the server, so the server has
/// stopped (and spilled its shards) by the time the dir is removed.
class RemoveDirOnExit {
 public:
  RemoveDirOnExit() = default;
  RemoveDirOnExit(const RemoveDirOnExit&) = delete;
  RemoveDirOnExit& operator=(const RemoveDirOnExit&) = delete;
  ~RemoveDirOnExit() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    if (ec) {
      std::cerr << "warning: cannot remove " << path_ << ": " << ec.message()
                << "\n";
    }
  }
  void set(std::string path) { path_ = std::move(path); }

 private:
  std::string path_;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const Options options = parse_args(args);

    const std::string spec_text =
        options.spec_file.empty() ? std::string(kDefaultSpec)
                                  : pg::scenario::read_file(options.spec_file);

    // Self-host unless pointed at a live daemon.
    RemoveDirOnExit cache_dir_cleanup;
    std::unique_ptr<pg::serve::ScenarioServer> server;
    std::string socket_path = options.socket_path;
    if (socket_path.empty()) {
      const std::string tag = std::to_string(::getpid());
      pg::serve::ServeOptions serve;
      serve.socket_path = "/tmp/pg_bench_serve_" + tag + ".sock";
      serve.cache_dir = "/tmp/pg_bench_serve_cache_" + tag;
      cache_dir_cleanup.set(serve.cache_dir);
      serve.threads = options.threads;
      serve.request_workers = std::max<std::size_t>(2, options.clients);
      server = std::make_unique<pg::serve::ScenarioServer>(serve);
      server->start();
      socket_path = serve.socket_path;
    }

    // Warmup: populate the payoff shards so the measured window reports
    // the resident steady state, not one cold retrain.
    {
      pg::serve::Client warm =
          pg::serve::Client::connect_retry(socket_path, 15000);
      const auto response = warm.request(spec_text);
      PG_CHECK(response.ok(), "warmup request failed: " + response.body);
    }

    std::vector<double> latencies_ms;
    latencies_ms.reserve(options.clients * options.requests);
    std::mutex latencies_mutex;
    std::size_t failures = 0;

    const auto bench_start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(options.clients);
    for (std::size_t c = 0; c < options.clients; ++c) {
      clients.emplace_back([&, c] {
        pg::serve::Client client =
            pg::serve::Client::connect_retry(socket_path, 15000);
        std::vector<double> local;
        local.reserve(options.requests);
        std::size_t local_failures = 0;
        for (std::size_t r = 0; r < options.requests; ++r) {
          pg::serve::RequestHeader meta;
          meta.request_id =
              "bench-" + std::to_string(c) + "-" + std::to_string(r);
          const auto start = std::chrono::steady_clock::now();
          const auto response = client.request(spec_text, meta);
          const auto elapsed = std::chrono::steady_clock::now() - start;
          if (!response.ok()) ++local_failures;
          local.push_back(
              std::chrono::duration<double, std::milli>(elapsed).count());
        }
        std::lock_guard<std::mutex> lock(latencies_mutex);
        latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
        failures += local_failures;
      });
    }
    for (std::thread& t : clients) t.join();
    const double elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      bench_start)
            .count();

    if (server != nullptr) server->stop();
    PG_CHECK(failures == 0,
             std::to_string(failures) + " requests answered an error");

    std::sort(latencies_ms.begin(), latencies_ms.end());
    const std::size_t total = latencies_ms.size();
    std::ostringstream json;
    json << "{\n";
    json << "  \"schema_version\": " << pg::serve::kSchemaVersion << ",\n";
    json << "  \"benchmark\": \"pg_bench_serve\",\n";
    json << "  \"clients\": " << options.clients << ",\n";
    json << "  \"requests_per_client\": " << options.requests << ",\n";
    json << "  \"requests_total\": " << total << ",\n";
    json << "  \"elapsed_seconds\": " << elapsed_seconds << ",\n";
    json << "  \"throughput_rps\": "
         << (elapsed_seconds > 0.0 ? static_cast<double>(total) /
                                         elapsed_seconds
                                   : 0.0)
         << ",\n";
    json << "  \"latency_ms\": {\n";
    json << "    \"p50\": " << percentile(latencies_ms, 0.50) << ",\n";
    json << "    \"p90\": " << percentile(latencies_ms, 0.90) << ",\n";
    json << "    \"p99\": " << percentile(latencies_ms, 0.99) << ",\n";
    json << "    \"max\": " << (total > 0 ? latencies_ms.back() : 0.0)
         << "\n";
    json << "  }\n";
    json << "}\n";

    if (!options.out_file.empty()) {
      std::ofstream out(options.out_file, std::ios::trunc);
      PG_CHECK(static_cast<bool>(out),
               "cannot write output file: " + options.out_file);
      out << json.str();
      std::cout << "wrote " << options.out_file << "\n";
    } else {
      std::cout << json.str();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
