// The in-process round of paper_batch: the timed phase reads the embedded
// table and pushes it through the serial engine in 256-event batches.

#include <memory>
#include <span>

#include "engine/registry.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "rounds.h"
#include "storage/table_reader.h"

namespace perfbench {

using namespace ses;

Result<RoundResult> RunInProcessRound(const Workload& w, Tracer* tracer,
                                      int run) {
  RoundResult r;
  ScopedCpuPin pin(run);
  ScopedSpan round(tracer, "round", -1, run);
  const int64_t setup_start = NowNs();
  SES_ASSIGN_OR_RETURN(storage::TableReader reader,
                       storage::TableReader::Open(w.table_path));
  const int64_t plan_start = NowNs();
  SES_ASSIGN_OR_RETURN(Pattern pattern,
                       ParsePattern(w.plans[0].query, w.schema));
  SES_ASSIGN_OR_RETURN(std::shared_ptr<const plan::CompiledPlan> plan,
                       plan::CompilePlan(pattern));
  MatchTally tally;
  std::vector<int64_t> batch_start;
  r.match_latency_ms.reserve(1 << 16);
  engine::EngineOptions options;
  options.sink = [&](Match&& match) {
    const int64_t now = NowNs();
    tally.Add(match);
    r.match_latency_ms.push_back(
        static_cast<double>(now - batch_start[w.SlabOf(0, match.end_time())]) /
        1e6);
  };
  SES_ASSIGN_OR_RETURN(std::unique_ptr<engine::Engine> engine,
                       engine::CreateEngine("serial", plan, std::move(options)));
  // The in-process counterpart of SubmitPlan: parse, compile, create.
  r.submit_us.push_back(static_cast<double>(NowNs() - plan_start) / 1e3);
  const int64_t cpu_start = SelfCpuNs();
  const int64_t start = NowNs();
  r.setup_s = static_cast<double>(start - setup_start) / 1e9;

  const int read_span =
      tracer ? tracer->Begin("storage.read", round.id(), run) : -1;
  Result<EventRelation> relation = reader.ReadAll();
  if (tracer) tracer->End(read_span);
  SES_RETURN_IF_ERROR(relation.status());
  std::span<const Event> events(relation->events());
  batch_start.reserve(events.size() / w.slab_events + 1);
  Status status;
  for (size_t offset = 0; offset < events.size() && status.ok();
       offset += w.slab_events) {
    const int64_t t = NowNs();
    batch_start.push_back(t);
    {
      ScopedSpan push(tracer, "engine.push", round.id(), run);
      status = engine->PushBatch(events.subspan(
          offset, std::min(w.slab_events, events.size() - offset)));
    }
    r.push_rtt_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    ++r.ops;
  }
  if (status.ok()) {
    const int64_t t = NowNs();
    ScopedSpan flush(tracer, "engine.flush", round.id(), run);
    status = engine->Flush();
    r.flush_ms = static_cast<double>(NowNs() - t) / 1e6;
    ++r.ops;
  }
  const int64_t end = NowNs();
  r.server_cpu_s = static_cast<double>(SelfCpuNs() - cpu_start) / 1e9;
  r.wall_s = static_cast<double>(end - start) / 1e9;
  r.events = static_cast<int64_t>(events.size());
  r.peak_rss_kb = PeakRssKb(0);

  if (!status.ok()) {
    r.failed_ops = r.ops;
    r.matches_ok = false;
    r.error = status.ToString();
  } else if (!(tally == w.expected.at(w.plans[0].id))) {
    r.failed_ops = r.ops;
    r.matches_ok = false;
    r.error = "p3 delivered " + tally.ToString() + ", reference " +
              w.expected.at(w.plans[0].id).ToString();
  }
  return r;
}

}  // namespace perfbench
