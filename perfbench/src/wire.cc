// The wire rounds: a fresh ses_server process per round (its Flush is
// global and terminal, docs/SERVER.md), one client thread and connection
// per stream, closed loop (each client sends its next slab only after the
// previous PushEvents was answered).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <thread>

#include "net/client.h"
#include "rounds.h"

namespace perfbench {

using namespace ses;

namespace {

/// Pause before re-sending a slab the server answered Busy (its ingest
/// queue was full). Well below the time the server needs to drain a full
/// queue, so the engine never starves while a client waits.
constexpr auto kBusyBackoff = std::chrono::microseconds(500);

/// A ses_server child process on an ephemeral loopback port. The child is
/// killed if the benchmark dies (PR_SET_PDEATHSIG); Stop() or the
/// destructor terminates it with SIGTERM and reaps it.
class ServerProcess {
 public:
  static Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const std::string& schema_text,
      const std::string& log_path);

  ~ServerProcess() { Stop().ok(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// SIGTERM, then waits for the exit; an abnormal exit is an error.
  Status Stop();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, const std::string& schema_text,
    const std::string& log_path) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::IoError("pipe2 failed");
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    if (log_fd >= 0) close(log_fd);
    return Status::IoError("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    const char* argv[] = {binary.c_str(),       "--schema", schema_text.c_str(),
                          "--port",             "0",        "--quiet",
                          "--idle-timeout-ms",  "0",        nullptr};
    execv(binary.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  close(fds[1]);
  if (log_fd >= 0) close(log_fd);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdout_fd_ = fds[0];

  // The first stdout line is "listening on 127.0.0.1:<port>".
  std::string line;
  const int64_t deadline = NowNs() + 20'000'000'000;
  while (line.empty() || line.back() != '\n') {
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    pollfd pfd{fds[0], POLLIN, 0};
    if (left_ms <= 0 || poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      return Status::IoError("ses_server did not report its port");
    }
    char ch = 0;
    if (read(fds[0], &ch, 1) != 1) {
      return Status::IoError("ses_server exited before listening");
    }
    line.push_back(ch);
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "listening on 127.0.0.1:%u", &port) != 1 ||
      port == 0 || port > 65535) {
    return Status::IoError("unexpected ses_server banner: " + line);
  }
  server->port_ = static_cast<uint16_t>(port);
  return server;
}

Status ServerProcess::Stop() {
  if (pid_ < 0) return Status::OK();
  kill(pid_, SIGTERM);
  int wstatus = 0;
  while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("ses_server exited abnormally");
  }
  return Status::OK();
}

/// Orders the end-of-run Flush after every client's pushes, as
/// ses_loadgen does: the server's Flush is a global end-of-stream
/// barrier, so client 0 flushes once all clients have pushed, and the
/// others flush after it (an engine no-op that drains their MatchBatch
/// frames). Failed clients arrive too, so no thread strands a peer.
class FlushGate {
 public:
  explicit FlushGate(int clients) : waiting_for_(clients) {}

  void ArrivePushed() {
    std::lock_guard<std::mutex> lock(mu_);
    --waiting_for_;
    cv_.notify_all();
  }
  void WaitAllPushed() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_for_ == 0; });
  }
  void MarkFlushed() {
    std::lock_guard<std::mutex> lock(mu_);
    flushed_ = true;
    cv_.notify_all();
  }
  void WaitFlushed() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return flushed_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_for_;
  bool flushed_ = false;
};

/// What one client thread measured.
struct ClientRun {
  Status status;
  int64_t end_ns = 0;
  int64_t ops = 0;
  int64_t failed_ops = 0;
  int64_t busy = 0;
  double flush_ms = 0;
  std::vector<double> submit_us;
  std::vector<double> push_rtt_us;
  std::vector<double> match_latency_ms;
  std::map<std::string, MatchTally> tallies;
  std::unique_ptr<net::Client> client;
};

/// Shared state of one round's client threads.
struct RoundSync {
  explicit RoundSync(int clients) : ready(clients), gate(clients) {}
  std::latch ready;
  std::latch go{1};
  FlushGate gate;
};

Status PushAll(const Workload& w, int c, Tracer* tracer, int parent, int run,
               std::vector<int64_t>* first_send, ClientRun* out) {
  std::span<const Event> events(w.streams[c].events());
  const size_t slabs = w.columnar_slabs[c].size();
  for (size_t s = 0; s < slabs; ++s) {
    (*first_send)[s] = NowNs();
    for (;;) {
      const int64_t t = NowNs();
      Result<bool> pushed = false;
      {
        ScopedSpan span(tracer, "net.push", parent, run);
        const size_t offset = s * w.slab_events;
        pushed = w.columnar
                     ? out->client->PushColumnar(w.columnar_slabs[c][s])
                     : out->client->Push(events.subspan(
                           offset,
                           std::min(w.slab_events, events.size() - offset)));
      }
      out->push_rtt_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      ++out->ops;
      if (!pushed.ok()) {
        ++out->failed_ops;
        return pushed.status();
      }
      if (*pushed) break;
      ++out->busy;
      std::this_thread::sleep_for(kBusyBackoff);
    }
  }
  return Status::OK();
}

void RunClient(const Workload& w, int c, uint16_t port, Tracer* tracer,
               int round_span, int run, RoundSync* sync, ClientRun* out) {
  ScopedSpan client_span(tracer, "client" + std::to_string(c), round_span,
                         run);
  const size_t slabs = w.columnar_slabs[c].size();
  std::vector<int64_t> first_send(slabs, 0);
  out->match_latency_ms.reserve(w.streams[c].size());
  net::ClientOptions options;
  options.port = port;
  options.client_name = "perfbench-" + std::to_string(c);
  options.match_sink = [&w, c, &first_send,
                        out](const net::MatchBatchResponse& batch) {
    const int64_t now = NowNs();
    MatchTally& tally = out->tallies[batch.plan_id];
    for (const Match& match : batch.matches) {
      tally.Add(match);
      out->match_latency_ms.push_back(
          static_cast<double>(now - first_send[w.SlabOf(c, match.end_time())]) /
          1e6);
    }
  };

  Status status = [&]() -> Status {
    SES_ASSIGN_OR_RETURN(out->client, net::Client::Connect(options));
    for (const PlanSpec* spec : w.PlansOf(c)) {
      const int64_t t = NowNs();
      ScopedSpan span(tracer, "net.submit_plan", client_span.id(), run);
      SES_RETURN_IF_ERROR(out->client->SubmitPlan(spec->id, spec->query));
      out->submit_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
    return Status::OK();
  }();
  sync->ready.count_down();
  sync->go.wait();

  if (status.ok()) {
    status = PushAll(w, c, tracer, client_span.id(), run, &first_send, out);
  }
  sync->gate.ArrivePushed();
  auto flush = [&]() {
    const int64_t t = NowNs();
    ScopedSpan span(tracer, "net.flush", client_span.id(), run);
    Status flushed = out->client->Flush();
    out->flush_ms = static_cast<double>(NowNs() - t) / 1e6;
    ++out->ops;
    if (!flushed.ok()) ++out->failed_ops;
    return flushed;
  };
  if (status.ok()) {
    if (c == 0) {
      sync->gate.WaitAllPushed();
      status = flush();
      sync->gate.MarkFlushed();
    } else {
      sync->gate.WaitFlushed();
      status = flush();
    }
  } else if (c == 0) {
    sync->gate.MarkFlushed();
  }
  out->end_ns = NowNs();
  out->status = status;
}

}  // namespace

Result<RoundResult> RunWireRound(const Workload& w,
                                 const std::string& server_binary,
                                 const std::string& log_path, Tracer* tracer,
                                 int run) {
  RoundResult r;
  ScopedSpan round(tracer, "round", -1, run);
  const int64_t setup_start = NowNs();
  SES_ASSIGN_OR_RETURN(
      std::unique_ptr<ServerProcess> server,
      ServerProcess::Spawn(server_binary, w.schema_text, log_path));

  const int n = w.num_clients();
  std::vector<ClientRun> clients(n);
  RoundSync sync(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int c = 0; c < n; ++c) {
    threads.emplace_back(RunClient, std::cref(w), c, server->port(), tracer,
                         round.id(), run, &sync, &clients[c]);
  }
  sync.ready.wait();
  const int64_t client_cpu_start = SelfCpuNs();
  const int64_t server_cpu_start = ProcessCpuNs(server->pid());
  const int64_t start = NowNs();
  r.setup_s = static_cast<double>(start - setup_start) / 1e9;
  sync.go.count_down();
  for (std::thread& thread : threads) thread.join();
  const int64_t server_cpu_end = ProcessCpuNs(server->pid());
  const int64_t client_cpu_end = SelfCpuNs();
  int64_t end = start;
  for (const ClientRun& client : clients) end = std::max(end, client.end_ns);

  r.wall_s = static_cast<double>(end - start) / 1e9;
  r.events = w.total_events();
  r.client_cpu_s =
      static_cast<double>(client_cpu_end - client_cpu_start) / 1e9;
  r.server_cpu_s =
      static_cast<double>(server_cpu_end - server_cpu_start) / 1e9;
  if (server_cpu_start < 0 || server_cpu_end < 0) {
    r.matches_ok = false;
    r.error = "cannot read ses_server's CPU clock";
  }
  r.peak_rss_kb = PeakRssKb(server->pid());

  for (ClientRun& client : clients) {
    r.ops += client.ops;
    r.failed_ops += client.failed_ops;
    r.busy += client.busy;
    r.flush_ms = std::max(r.flush_ms, client.flush_ms);
    r.submit_us.insert(r.submit_us.end(), client.submit_us.begin(),
                       client.submit_us.end());
    r.push_rtt_us.insert(r.push_rtt_us.end(), client.push_rtt_us.begin(),
                         client.push_rtt_us.end());
    r.match_latency_ms.insert(r.match_latency_ms.end(),
                              client.match_latency_ms.begin(),
                              client.match_latency_ms.end());
    if (!client.status.ok() && r.error.empty()) {
      r.matches_ok = false;
      r.error = client.status.ToString();
    }
    if (client.client != nullptr) client.client->Close();
  }
  for (const PlanSpec& spec : w.plans) {
    const MatchTally got = clients[spec.client].tallies[spec.id];
    const MatchTally& want = w.expected.at(spec.id);
    if (!(got == want)) {
      r.matches_ok = false;
      if (r.error.empty()) {
        r.error = "plan " + spec.id + " delivered " + got.ToString() +
                  ", reference " + want.ToString();
      }
    }
  }
  if (!r.matches_ok) r.failed_ops = r.ops;
  if (Status stopped = server->Stop(); !stopped.ok() && r.error.empty()) {
    r.error = stopped.ToString();
  }
  return r;
}

}  // namespace perfbench
