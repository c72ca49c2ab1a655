#include "layers.h"

#include <sys/socket.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <thread>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "core/matcher.h"
#include "engine/registry.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/table_reader.h"
#include "storage/table_writer.h"

namespace perfbench {

using namespace ses;

namespace {

/// Repetitions of each cheap layer replay; the median is reported.
constexpr int kReps = 3;
/// Slabs echoed through the loopback socket for net.frame_echo_us.
constexpr size_t kEchoSlabs = 200;

/// The path replay's stage spans; each is reported as
/// trace.<span>.self_share on every workload (0 where the stage is not on
/// the workload's path).
constexpr const char* kPathSpans[] = {
    "storage.read", "core.match",   "net.encode",       "net.socket",
    "net.decode",   "catalog.push", "net.match_encode", "net.match_decode"};

/// Runs `f` inside a span and returns its result.
template <typename F>
auto Traced(Tracer* tracer, const char* name, int parent, int run, F&& f) {
  ScopedSpan span(tracer, name, parent, run);
  return f();
}

/// Runs `f` (returning Status) kReps times, each inside a span; returns the
/// median wall time in ns.
template <typename F>
Result<double> MedianNs(Tracer* tracer, const char* name, int run, F&& f) {
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t t = NowNs();
    SES_RETURN_IF_ERROR(Traced(tracer, name, -1, run, f));
    samples.push_back(static_cast<double>(NowNs() - t));
  }
  return Median(samples);
}

/// A connected loopback TCP pair, in-process: no server, just the socket
/// and frame I/O of net/socket.h.
struct Loopback {
  net::Socket client;
  net::Socket server;
};

Result<Loopback> OpenLoopback() {
  uint16_t port = 0;
  SES_ASSIGN_OR_RETURN(net::Socket listener, net::ListenTcp(0, &port));
  Loopback link;
  SES_ASSIGN_OR_RETURN(link.client, net::ConnectTcp(port));
  SES_ASSIGN_OR_RETURN(bool readable, net::WaitReadable(listener.fd(), 5000));
  if (!readable) return Status::IoError("loopback accept timed out");
  SES_ASSIGN_OR_RETURN(link.server, net::Accept(listener));
  for (int fd : {link.client.fd(), link.server.fd()}) {
    // One thread writes a frame and then reads it back, so the whole frame
    // must fit the socket buffers; the timeouts turn a wedge into an error.
    const int bytes = 8 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    SES_RETURN_IF_ERROR(net::SetSendTimeout(fd, 5000));
    SES_RETURN_IF_ERROR(net::SetRecvTimeout(fd, 5000));
  }
  return link;
}

Result<net::Frame> Echo(int from, int to, net::PacketType type,
                        std::string_view payload) {
  SES_RETURN_IF_ERROR(net::WriteFrame(from, type, payload));
  return net::ReadFrame(to);
}

std::span<const Event> RowSlab(const Workload& w, int c, size_t s) {
  std::span<const Event> events(w.streams[c].events());
  const size_t offset = s * w.slab_events;
  return events.subspan(offset,
                        std::min(w.slab_events, events.size() - offset));
}

/// (client, slab) pairs in the order the server's one shared engine sees
/// them when every client pushes in lockstep.
std::vector<std::pair<int, size_t>> SlabOrder(const Workload& w) {
  size_t most = 0;
  for (const auto& slabs : w.columnar_slabs) most = std::max(most, slabs.size());
  std::vector<std::pair<int, size_t>> order;
  for (size_t s = 0; s < most; ++s) {
    for (int c = 0; c < w.num_clients(); ++c) {
      if (s < w.columnar_slabs[c].size()) order.push_back({c, s});
    }
  }
  return order;
}

Result<std::shared_ptr<const plan::CompiledPlan>> Compile(
    const Workload& w, const std::string& query) {
  SES_ASSIGN_OR_RETURN(Pattern pattern, ParsePattern(query, w.schema));
  return plan::CompilePlan(pattern);
}

Result<std::shared_ptr<catalog::QueryCatalog>> BuildCatalog(const Workload& w) {
  auto catalog = std::make_shared<catalog::QueryCatalog>();
  for (const PlanSpec& spec : w.plans) {
    SES_ASSIGN_OR_RETURN(std::shared_ptr<const plan::CompiledPlan> plan,
                         Compile(w, spec.query));
    SES_RETURN_IF_ERROR(catalog->Add(spec.id, std::move(plan)));
  }
  return catalog;
}

void Check(const Workload& w, std::map<std::string, MatchTally> got,
           const std::string& what, LayerOutcome* outcome) {
  ++outcome->checks;
  for (const PlanSpec& spec : w.plans) {
    const MatchTally& want = w.expected.at(spec.id);
    if (!(got[spec.id] == want)) {
      ++outcome->failed;
      if (outcome->first_error.empty()) {
        outcome->first_error = what + ": plan " + spec.id + " " +
                               got[spec.id].ToString() + ", reference " +
                               want.ToString();
      }
      return;
    }
  }
}

// --- Path replays ---

Status WirePath(const Workload& w, Tracer* tracer, int run, int root,
                LayerOutcome* outcome) {
  SES_ASSIGN_OR_RETURN(Loopback link, OpenLoopback());
  SES_ASSIGN_OR_RETURN(std::shared_ptr<catalog::QueryCatalog> catalog,
                       BuildCatalog(w));
  std::map<std::string, std::vector<Match>> pending;
  catalog::CatalogOptions options;
  options.sink = [&pending](std::string_view id, Match&& match) {
    pending[std::string(id)].push_back(std::move(match));
  };
  SES_ASSIGN_OR_RETURN(
      std::unique_ptr<catalog::CatalogEngine> engine,
      catalog::CatalogEngine::Create(catalog, std::move(options)));
  std::map<std::string, MatchTally> got;

  // Server → client: encode each plan's pending matches, send them over
  // the socket, decode them on the client side.
  auto deliver = [&]() -> Status {
    std::vector<std::string> payloads;
    {
      ScopedSpan span(tracer, "net.match_encode", root, run);
      for (auto& [id, matches] : pending) {
        if (matches.empty()) continue;
        payloads.push_back(net::MatchBatchResponse::Encode(
            id, std::span<const Match>(matches), w.schema));
        matches.clear();
      }
    }
    for (const std::string& payload : payloads) {
      Result<net::Frame> frame =
          Traced(tracer, "net.socket", root, run, [&] {
            return Echo(link.server.fd(), link.client.fd(),
                        net::PacketType::kMatchBatch, payload);
          });
      SES_RETURN_IF_ERROR(frame.status());
      Result<net::MatchBatchResponse> batch =
          Traced(tracer, "net.match_decode", root, run, [&] {
            return net::MatchBatchResponse::Decode(frame->payload, w.schema);
          });
      SES_RETURN_IF_ERROR(batch.status());
      for (const Match& match : batch->matches) got[batch->plan_id].Add(match);
    }
    return Status::OK();
  };

  for (const auto& [c, s] : SlabOrder(w)) {
    const std::string payload = Traced(tracer, "net.encode", root, run, [&] {
      return w.columnar ? net::PushEventsRequest::EncodeColumnar(
                              w.columnar_slabs[c][s])
                        : net::PushEventsRequest::EncodeRows(RowSlab(w, c, s),
                                                             w.schema);
    });
    Result<net::Frame> frame = Traced(tracer, "net.socket", root, run, [&] {
      return Echo(link.client.fd(), link.server.fd(),
                  net::PacketType::kPushEvents, payload);
    });
    SES_RETURN_IF_ERROR(frame.status());
    Result<net::PushEventsRequest> request =
        Traced(tracer, "net.decode", root, run, [&] {
          return net::PushEventsRequest::Decode(frame->payload, w.schema);
        });
    SES_RETURN_IF_ERROR(request.status());
    SES_RETURN_IF_ERROR(Traced(tracer, "catalog.push", root, run, [&] {
      return request->layout == net::PushEventsRequest::Layout::kColumnar
                 ? engine->PushColumnar(request->columnar)
                 : engine->PushBatch(
                       std::span<const Event>(request->events));
    }));
    SES_RETURN_IF_ERROR(deliver());
  }
  SES_RETURN_IF_ERROR(Traced(tracer, "catalog.push", root, run,
                             [&] { return engine->Flush(); }));
  SES_RETURN_IF_ERROR(deliver());
  Check(w, std::move(got), "path replay", outcome);
  return Status::OK();
}

Status InProcessPath(const Workload& w, Tracer* tracer, int run, int root,
                     LayerOutcome* outcome) {
  SES_ASSIGN_OR_RETURN(std::shared_ptr<const plan::CompiledPlan> plan,
                       Compile(w, w.plans[0].query));
  Matcher matcher(plan->shared_automaton(), plan->matcher_options(),
                  plan->shared_prefilter());
  Result<EventRelation> relation = Traced(
      tracer, "storage.read", root, run,
      [&] { return storage::ReadTable(w.table_path); });
  SES_RETURN_IF_ERROR(relation.status());
  std::vector<Match> out;
  std::span<const Event> events(relation->events());
  for (size_t offset = 0; offset < events.size(); offset += w.slab_events) {
    std::span<const Event> batch = events.subspan(
        offset, std::min(w.slab_events, events.size() - offset));
    SES_RETURN_IF_ERROR(Traced(tracer, "core.match", root, run, [&] {
      for (const Event& event : batch) {
        SES_RETURN_IF_ERROR(matcher.Push(event, &out));
      }
      return Status::OK();
    }));
  }
  Traced(tracer, "core.match", root, run, [&] { matcher.Flush(&out); });
  std::map<std::string, MatchTally> got;
  for (const Match& match : out) got[w.plans[0].id].Add(match);
  Check(w, std::move(got), "core::Matcher replay", outcome);
  return Status::OK();
}

// --- Layer replays ---

struct FleetResult {
  double ns = 0;
  int64_t events_pushed = 0;
  int64_t events_filtered = 0;
  int64_t instances_created = 0;
  int64_t max_simultaneous_instances = 0;
  int64_t matches = 0;
  int64_t max_queue_depth = 0;
  std::map<std::string, MatchTally> tallies;
};

/// Every plan in its own standalone engine of `kind`, fed its client's
/// stream in the workload's slab layout; times push + flush only.
Result<FleetResult> RunFleet(const Workload& w, const std::string& kind,
                             bool partitioned_variant, Tracer* tracer,
                             int run) {
  FleetResult result;
  ScopedSpan span(tracer, "engine." + kind, -1, run);
  for (const PlanSpec& spec : w.plans) {
    SES_ASSIGN_OR_RETURN(
        std::shared_ptr<const plan::CompiledPlan> plan,
        Compile(w, partitioned_variant ? w.partitioned_query : spec.query));
    engine::EngineOptions options;
    MatchTally& tally = result.tallies[spec.id];
    options.sink = [&tally](Match&& match) { tally.Add(match); };
    options.num_shards =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    SES_ASSIGN_OR_RETURN(std::unique_ptr<engine::Engine> engine,
                         engine::CreateEngine(kind, plan, std::move(options)));
    const int c = spec.client;
    const int64_t t = NowNs();
    for (size_t s = 0; s < w.columnar_slabs[c].size(); ++s) {
      SES_RETURN_IF_ERROR(w.columnar
                              ? engine->PushColumnar(w.columnar_slabs[c][s])
                              : engine->PushBatch(RowSlab(w, c, s)));
    }
    SES_RETURN_IF_ERROR(engine->Flush());
    result.ns += static_cast<double>(NowNs() - t);
    const engine::EngineStats stats = engine->stats();
    result.events_pushed += stats.events_pushed;
    result.events_filtered += stats.events_filtered;
    result.instances_created += stats.instances_created;
    result.max_simultaneous_instances = std::max(
        result.max_simultaneous_instances, stats.max_simultaneous_instances);
    result.matches += stats.matches_emitted;
    result.max_queue_depth =
        std::max(result.max_queue_depth, stats.max_queue_depth);
  }
  return result;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Status CodecLayers(const Workload& w, Tracer* tracer, int run,
                   MetricSet* m) {
  const double events = static_cast<double>(w.total_events());
  // Every slab of every client, encoded in each layout; the decode
  // replays read what the last encode replay wrote.
  std::vector<std::string> rows, columns;
  auto encode = [&](bool columnar) -> Status {
    std::vector<std::string>& out = columnar ? columns : rows;
    out.clear();
    for (int c = 0; c < w.num_clients(); ++c) {
      for (size_t s = 0; s < w.columnar_slabs[c].size(); ++s) {
        out.push_back(columnar ? net::PushEventsRequest::EncodeColumnar(
                                     w.columnar_slabs[c][s])
                               : net::PushEventsRequest::EncodeRows(
                                     RowSlab(w, c, s), w.schema));
      }
    }
    return Status::OK();
  };
  auto decode = [&](const std::vector<std::string>& payloads) -> Status {
    for (const std::string& payload : payloads) {
      SES_RETURN_IF_ERROR(
          net::PushEventsRequest::Decode(payload, w.schema).status());
    }
    return Status::OK();
  };
  SES_ASSIGN_OR_RETURN(double ns, MedianNs(tracer, "net.encode_rows", run,
                                           [&] { return encode(false); }));
  m->Set("net.encode_rows_ns_per_event", ns / events, "ns/event");
  SES_ASSIGN_OR_RETURN(ns, MedianNs(tracer, "net.decode_rows", run,
                                    [&] { return decode(rows); }));
  m->Set("net.decode_rows_ns_per_event", ns / events, "ns/event");
  SES_ASSIGN_OR_RETURN(ns, MedianNs(tracer, "net.encode_columnar", run,
                                    [&] { return encode(true); }));
  m->Set("net.encode_columnar_ns_per_event", ns / events, "ns/event");
  SES_ASSIGN_OR_RETURN(ns, MedianNs(tracer, "net.decode_columnar", run,
                                    [&] { return decode(columns); }));
  m->Set("net.decode_columnar_ns_per_event", ns / events, "ns/event");

  const std::vector<std::string>& own = w.columnar ? columns : rows;
  double bytes = 0;
  for (const std::string& payload : own) {
    std::string frame;
    net::EncodeFrame(net::PacketType::kPushEvents, payload, &frame);
    bytes += static_cast<double>(frame.size());
  }
  m->Set("net.bytes_per_event", bytes / events, "bytes/event");

  // One slab frame (the workload's layout) written and read back.
  SES_ASSIGN_OR_RETURN(Loopback link, OpenLoopback());
  std::vector<double> echo_us;
  for (size_t i = 0; i < std::min(kEchoSlabs, own.size()); ++i) {
    const int64_t t = NowNs();
    SES_RETURN_IF_ERROR(Traced(tracer, "net.frame_echo", -1, run, [&] {
                          return Echo(link.client.fd(), link.server.fd(),
                                      net::PacketType::kPushEvents, own[i]);
                        }).status());
    echo_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
  }
  m->Set("net.frame_echo_us", Median(echo_us), "us");

  // Match codec over the reference matches, in MatchBatch frames of at
  // most one slab's worth of matches.
  std::vector<std::pair<std::string, std::span<const Match>>> batches;
  double match_count = 0;
  for (const auto& [id, matches] : w.sample_matches) {
    std::span<const Match> all(matches);
    for (size_t i = 0; i < all.size(); i += w.slab_events) {
      batches.push_back(
          {id, all.subspan(i, std::min(w.slab_events, all.size() - i))});
    }
    match_count += static_cast<double>(matches.size());
  }
  std::vector<std::string> encoded(batches.size());
  SES_ASSIGN_OR_RETURN(ns, MedianNs(tracer, "net.match_encode", run, [&] {
    for (size_t i = 0; i < batches.size(); ++i) {
      encoded[i] = net::MatchBatchResponse::Encode(batches[i].first,
                                                   batches[i].second, w.schema);
    }
    return Status::OK();
  }));
  m->Set("net.match_encode_ns_per_match", Ratio(ns, match_count), "ns/match");
  SES_ASSIGN_OR_RETURN(ns, MedianNs(tracer, "net.match_decode", run, [&] {
    for (const std::string& payload : encoded) {
      SES_RETURN_IF_ERROR(
          net::MatchBatchResponse::Decode(payload, w.schema).status());
    }
    return Status::OK();
  }));
  m->Set("net.match_decode_ns_per_match", Ratio(ns, match_count), "ns/match");
  return Status::OK();
}

Status PlanLayer(const Workload& w, Tracer* tracer, int run, MetricSet* m) {
  SES_ASSIGN_OR_RETURN(double ns, MedianNs(tracer, "plan.compile", run, [&] {
    for (const PlanSpec& spec : w.plans) {
      SES_RETURN_IF_ERROR(Compile(w, spec.query).status());
    }
    return Status::OK();
  }));
  m->Set("plan.compile_us_per_plan",
         ns / 1e3 / static_cast<double>(w.plans.size()), "us");
  return Status::OK();
}

Status CatalogLayer(const Workload& w, Tracer* tracer, int run, MetricSet* m,
                    LayerOutcome* outcome) {
  SES_ASSIGN_OR_RETURN(std::shared_ptr<catalog::QueryCatalog> catalog,
                       BuildCatalog(w));
  std::map<std::string, MatchTally> got;
  catalog::CatalogOptions options;
  options.sink = [&got](std::string_view id, Match&& match) {
    got[std::string(id)].Add(match);
  };
  SES_ASSIGN_OR_RETURN(
      std::unique_ptr<catalog::CatalogEngine> engine,
      catalog::CatalogEngine::Create(catalog, std::move(options)));
  const std::vector<std::pair<int, size_t>> order = SlabOrder(w);
  SES_ASSIGN_OR_RETURN(double ns, MedianNs(tracer, "catalog.push", run, [&] {
    engine->Reset();
    got.clear();
    for (const auto& [c, s] : order) {
      SES_RETURN_IF_ERROR(w.columnar
                              ? engine->PushColumnar(w.columnar_slabs[c][s])
                              : engine->PushBatch(RowSlab(w, c, s)));
    }
    return engine->Flush();
  }));
  Check(w, got, "catalog replay", outcome);
  const catalog::CatalogStats stats = engine->stats();
  const double pushed = static_cast<double>(stats.events_pushed);
  const double pairs = pushed * static_cast<double>(w.plans.size());
  m->Set("catalog.push_ns_per_event", Ratio(ns, pushed), "ns/event");
  m->Set("catalog.plans_reached_per_event",
         Ratio(static_cast<double>(stats.events_considered), pushed),
         "plans/event");
  m->Set("catalog.index_skip_share",
         Ratio(static_cast<double>(stats.events_skipped_by_index), pairs),
         "share");
  m->Set("catalog.prefilter_skip_share",
         Ratio(static_cast<double>(stats.events_skipped_by_prefilter), pairs),
         "share");
  return Status::OK();
}

Status EngineLayers(const Workload& w, Tracer* tracer, int run, MetricSet* m,
                    LayerOutcome* outcome) {
  const double events = static_cast<double>(w.total_events());
  SES_ASSIGN_OR_RETURN(FleetResult serial,
                       RunFleet(w, "serial", false, tracer, run));
  Check(w, serial.tallies, "serial engines", outcome);
  m->Set("engine.serial_ns_per_event", serial.ns / events, "ns/event");
  m->Set("core.instances_per_event",
         Ratio(static_cast<double>(serial.instances_created),
               static_cast<double>(serial.events_pushed)),
         "instances/event");
  m->Set("core.max_simultaneous_instances",
         static_cast<double>(serial.max_simultaneous_instances), "count");
  m->Set("core.filtered_share",
         Ratio(static_cast<double>(serial.events_filtered),
               static_cast<double>(serial.events_pushed)),
         "share");
  m->Set("core.matches_per_instance",
         Ratio(static_cast<double>(serial.matches),
               static_cast<double>(serial.instances_created)),
         "matches/instance");

  // paper_batch's P3 joins nothing, so the partition-pure engines run its
  // per-patient variant; the two must agree with each other. The wire
  // workloads' plans are partitionable as they are and must match the
  // reference.
  const bool variant = !w.partitioned_query.empty();
  SES_ASSIGN_OR_RETURN(FleetResult partitioned,
                       RunFleet(w, "partitioned", variant, tracer, run));
  SES_ASSIGN_OR_RETURN(FleetResult parallel,
                       RunFleet(w, "parallel", variant, tracer, run));
  if (variant) {
    ++outcome->checks;
    if (partitioned.tallies != parallel.tallies) {
      ++outcome->failed;
      if (outcome->first_error.empty()) {
        outcome->first_error = "partitioned and parallel engines disagree";
      }
    }
  } else {
    Check(w, partitioned.tallies, "partitioned engines", outcome);
    Check(w, parallel.tallies, "parallel engines", outcome);
  }
  m->Set("engine.partitioned_ns_per_event", partitioned.ns / events,
         "ns/event");
  m->Set("exec.parallel_ns_per_event", parallel.ns / events, "ns/event");
  m->Set("exec.max_queue_depth", static_cast<double>(parallel.max_queue_depth),
         "count");
  return Status::OK();
}

Status StorageLayer(const Workload& w, const std::string& out_dir,
                    Tracer* tracer, int run, MetricSet* m) {
  std::vector<std::string> paths;
  if (!w.table_path.empty()) {
    paths.push_back(w.table_path);
  } else {
    for (int c = 0; c < w.num_clients(); ++c) {
      paths.push_back(out_dir + "/" + w.name + "-client" + std::to_string(c) +
                      ".sestbl");
      SES_RETURN_IF_ERROR(storage::WriteTable(w.streams[c], paths.back()));
    }
  }
  SES_ASSIGN_OR_RETURN(double ns, MedianNs(tracer, "storage.read", run, [&] {
    for (const std::string& path : paths) {
      SES_RETURN_IF_ERROR(storage::ReadTable(path).status());
    }
    return Status::OK();
  }));
  m->Set("storage.read_ns_per_event",
         ns / static_cast<double>(w.total_events()), "ns/event");
  return Status::OK();
}

/// The layer each workload is meant to be bound by.
std::vector<std::string> IntendedLayers(const std::string& workload) {
  if (workload == "paper_batch") return {"core", "storage"};
  if (workload == "wire_stream") return {"net"};
  return {"catalog"};
}

}  // namespace

Status RunLayerReplays(const Workload& w, const std::string& out_dir,
                       Tracer* tracer, int path_run, int layers_run,
                       MetricSet* metrics, LayerOutcome* outcome) {
  const int root = tracer->Begin("path", -1, path_run);
  SES_RETURN_IF_ERROR(w.table_path.empty()
                          ? WirePath(w, tracer, path_run, root, outcome)
                          : InProcessPath(w, tracer, path_run, root, outcome));
  tracer->End(root);
  const Span root_span = tracer->spans()[root];
  const double path_ns =
      static_cast<double>(root_span.end_ns - root_span.start_ns);
  const std::map<std::string, int64_t> self =
      tracer->SelfTimeByName(path_run);
  std::map<std::string, double> by_layer;
  for (const char* name : kPathSpans) {
    auto it = self.find(name);
    const double share =
        it == self.end() ? 0.0 : static_cast<double>(it->second) / path_ns;
    metrics->Set(std::string("trace.") + name + ".self_share", share,
                 "share");
    const std::string layer(name, std::string_view(name).find('.'));
    by_layer[layer] += share;
  }

  const std::vector<std::string> intended = IntendedLayers(w.name);
  double intended_share = 0;
  for (const std::string& layer : intended) intended_share += by_layer[layer];
  std::string top;
  for (const auto& [layer, share] : by_layer) {
    if (top.empty() || share > by_layer[top]) top = layer;
  }
  char buf[256];
  std::string expected_name;
  for (const std::string& layer : intended) {
    expected_name += (expected_name.empty() ? "" : "+") + layer;
  }
  outcome->verdict_agrees =
      intended_share >= 0.5 ||
      std::find(intended.begin(), intended.end(), top) != intended.end();
  std::snprintf(buf, sizeof(buf),
                "expected %s bound: %s self share %.3f; largest layer %s "
                "(%.3f)%s",
                expected_name.c_str(), expected_name.c_str(), intended_share,
                top.c_str(), by_layer[top],
                outcome->verdict_agrees ? "" : " -- CONTRADICTS the intent");
  outcome->verdict = buf;

  SES_RETURN_IF_ERROR(CodecLayers(w, tracer, layers_run, metrics));
  SES_RETURN_IF_ERROR(PlanLayer(w, tracer, layers_run, metrics));
  SES_RETURN_IF_ERROR(CatalogLayer(w, tracer, layers_run, metrics, outcome));
  SES_RETURN_IF_ERROR(EngineLayers(w, tracer, layers_run, metrics, outcome));
  SES_RETURN_IF_ERROR(StorageLayer(w, out_dir, tracer, layers_run, metrics));
  return Status::OK();
}

}  // namespace perfbench
