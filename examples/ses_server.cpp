// ses_server — the long-running SES network server: serves the sesnet wire
// protocol (src/net/protocol.h) on 127.0.0.1, evaluating standing queries
// submitted by net::Client connections over client-pushed event streams.
// Each connection is its own stream: its plans see only its events, and
// its Flush ends only its stream. docs/SERVER.md is the operator guide.
//
//   # serve the demo schema on an ephemeral port (printed on stdout)
//   ses_server --schema "ID INT, L STRING, V DOUBLE, U STRING"
//
//   # fixed port
//   ses_server --schema "..." --port 7341
//
// The server runs until SIGINT/SIGTERM, then closes every connection
// cleanly (clients see the socket close; admitted slabs finish evaluating
// first).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/strings.h"
#include "net/server.h"

namespace {

using namespace ses;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct ServerArgs {
  std::string schema_text;
  int64_t port = 0;
  int64_t queue_capacity = 64;
  int64_t idle_timeout_ms = 60'000;
  bool quiet = false;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --schema \"NAME TYPE, ...\" [options]\n"
      "  --schema TEXT        stream schema (required), e.g.\n"
      "                       \"ID INT, L STRING, V DOUBLE, U STRING\"\n"
      "  --port N             TCP port on 127.0.0.1, 0..65535 (default 0 =\n"
      "                       ephemeral; the chosen port is printed on stdout)\n"
      "  --queue-capacity N   per-connection ingest queue slots (>= 1) before\n"
      "                       PushEvents answers Busy (default 64)\n"
      "  --idle-timeout-ms N  close connections idle this long (default\n"
      "                       60000; 0 disables)\n"
      "  --quiet              suppress the startup banner (port line stays)\n",
      argv0);
}

ses::Result<ServerArgs> ParseArgs(int argc, char** argv) {
  ServerArgs args;
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(std::string(flag) + " needs a value");
      }
      return std::string(argv[++i]);
    };
    // The value of a numeric flag: a whole integer within [min, max].
    auto next_int = [&](int64_t min, int64_t max) -> Result<int64_t> {
      SES_ASSIGN_OR_RETURN(std::string text, next());
      Result<int64_t> value = strings::ParseInt64(text);
      if (!value.ok() || *value < min || *value > max) {
        return Status::InvalidArgument(
            std::string(flag) + " must be an integer in [" +
            std::to_string(min) + ", " + std::to_string(max) + "], got '" +
            text + "'");
      }
      return *value;
    };
    if (flag == "--schema") {
      SES_ASSIGN_OR_RETURN(args.schema_text, next());
    } else if (flag == "--port") {
      SES_ASSIGN_OR_RETURN(args.port, next_int(0, 65535));
    } else if (flag == "--queue-capacity") {
      SES_ASSIGN_OR_RETURN(args.queue_capacity, next_int(1, kInt64Max));
    } else if (flag == "--idle-timeout-ms") {
      SES_ASSIGN_OR_RETURN(args.idle_timeout_ms, next_int(0, kInt64Max));
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--help") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else {
      return Status::InvalidArgument("unknown flag: " + std::string(flag));
    }
  }
  if (args.schema_text.empty()) {
    return Status::InvalidArgument("--schema is required (try --help)");
  }
  return args;
}

Status Run(const ServerArgs& args) {
  net::ServerOptions options;
  SES_ASSIGN_OR_RETURN(options.schema, ParseSchemaText(args.schema_text));
  options.port = static_cast<uint16_t>(args.port);
  options.queue_capacity = static_cast<size_t>(args.queue_capacity);
  options.idle_timeout_ms = args.idle_timeout_ms;

  SES_ASSIGN_OR_RETURN(std::unique_ptr<net::Server> server,
                       net::Server::Start(std::move(options)));
  // Scripts (tools/server_smoke.sh) parse this line for the ephemeral port.
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);
  if (!args.quiet) {
    std::fprintf(stderr,
                 "ses_server: queue-capacity=%lld idle-timeout=%lldms\n",
                 static_cast<long long>(args.queue_capacity),
                 static_cast<long long>(args.idle_timeout_ms));
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "ses_server: shutting down (%zu connection(s))\n",
               server->num_connections());
  server->Stop();
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Result<ServerArgs> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "ses_server: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status status = Run(*args);
  if (!status.ok()) {
    std::fprintf(stderr, "ses_server: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
