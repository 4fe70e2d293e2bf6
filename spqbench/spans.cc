// Traced windows of a `--trace 1` run. The benchmark records its own span
// around each public call and turns the program's tracer on; from the
// collected spans it derives each layer's self time (its span's duration
// minus the part its child spans cover), the tracing overhead, and the
// share of call time that no program span covers.

#include <algorithm>
#include <cstring>
#include <future>
#include <thread>

#include "common/stopwatch.h"
#include "dfs/mini_dfs.h"
#include "spq/cell_store.h"
#include "spq/serving.h"
#include "spqbench.h"

namespace spqbench {

using spq::trace::SpanEvent;

namespace {

using Interval = std::pair<uint64_t, uint64_t>;

uint64_t End(const SpanEvent& s) { return s.start_ns + s.dur_ns; }

bool Contains(const SpanEvent& outer, const SpanEvent& inner) {
  return outer.start_ns <= inner.start_ns && End(inner) <= End(outer);
}

/// Length of the union of `parts` clipped to [lo, hi).
uint64_t CoveredLength(std::vector<Interval> parts, uint64_t lo, uint64_t hi) {
  std::sort(parts.begin(), parts.end());
  uint64_t covered = 0;
  uint64_t reach = lo;
  for (const auto& [s, e] : parts) {
    const uint64_t a = std::max(s, reach);
    const uint64_t b = std::min(e, hi);
    if (b > a) covered += b - a;
    reach = std::max(reach, std::min(e, hi));
  }
  return covered;
}

/// Pool-thread task spans have no parent on their own thread; they were
/// caused by the job phase running on the calling thread.
bool IsJobPhase(const char* name) {
  return std::strcmp(name, "job.map") == 0 ||
         std::strcmp(name, "job.reduce") == 0;
}

}  // namespace

void AccumulateSpans(const std::vector<SpanEvent>& spans, const char* root,
                     SpanTable& table) {
  const std::size_t n = spans.size();
  std::vector<long> parent(n, -1);
  // Same-thread nesting: walk each thread's spans in start order
  // (enclosing span first on ties) with a stack of open spans.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].tid != spans[b].tid) return spans[a].tid < spans[b].tid;
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    return spans[a].dur_ns > spans[b].dur_ns;
  });
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k > 0 && spans[order[k - 1]].tid != spans[i].tid) stack.clear();
    while (!stack.empty() && !Contains(spans[stack.back()], spans[i])) {
      stack.pop_back();
    }
    if (!stack.empty()) parent[i] = static_cast<long>(stack.back());
    stack.push_back(i);
  }
  std::vector<std::size_t> phases;
  for (std::size_t i = 0; i < n; ++i) {
    if (IsJobPhase(spans[i].name)) phases.push_back(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0) continue;
    long best = -1;
    for (std::size_t p : phases) {
      if (spans[p].tid == spans[i].tid || !Contains(spans[p], spans[i])) {
        continue;
      }
      if (best < 0 || spans[p].dur_ns < spans[best].dur_ns) {
        best = static_cast<long>(p);
      }
    }
    parent[i] = best;
  }

  std::vector<std::vector<Interval>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0) {
      children[parent[i]].emplace_back(spans[i].start_ns, End(spans[i]));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t covered =
        CoveredLength(children[i], spans[i].start_ns, End(spans[i]));
    table.self_ns[spans[i].name] +=
        static_cast<double>(spans[i].dur_ns - covered);
  }

  if (root == nullptr) return;
  std::vector<Interval> program;
  for (const SpanEvent& s : spans) {
    if (std::strcmp(s.name, root) != 0) program.emplace_back(s.start_ns, End(s));
  }
  for (const SpanEvent& s : spans) {
    if (std::strcmp(s.name, root) != 0) continue;
    table.root_ns += static_cast<double>(s.dur_ns);
    table.uncovered_ns += static_cast<double>(
        s.dur_ns - CoveredLength(program, s.start_ns, End(s)));
  }
}

namespace {

/// Runs `fn` with the tracer on and adds the spans it left to `table`
/// (`root` names the benchmark's own span, if `fn` records one).
template <typename Fn>
void Capture(SpanTable& table, uint64_t& dropped, const char* root, Fn fn) {
  spq::trace::Clear();
  spq::trace::SetEnabled(true);
  fn();
  spq::trace::SetEnabled(false);
  dropped += spq::trace::DroppedSpans();
  AccumulateSpans(spq::trace::Collect(), root, table);
}

/// Runs `calls` calls of `fn`, each in its own capture window under a
/// `bench.call` span; returns each call's latency.
template <typename Fn>
std::vector<double> TraceCalls(std::size_t calls, SpanTable& table,
                               uint64_t& dropped, Fn fn) {
  std::vector<double> lat_ms;
  for (std::size_t i = 0; i < calls; ++i) {
    Capture(table, dropped, "bench.call", [&] {
      spq::Stopwatch watch;
      {
        spq::trace::ScopedSpan span("bench.call");
        fn(i);
      }
      lat_ms.push_back(watch.ElapsedMillis());
    });
  }
  return lat_ms;
}

double SelfMs(const SpanTable& table, const char* name, std::size_t ops) {
  const auto it = table.self_ns.find(name);
  const double ns = it == table.self_ns.end() ? 0.0 : it->second;
  return ns / 1e6 / static_cast<double>(std::max<std::size_t>(1, ops));
}

}  // namespace

void RunTraced(RunContext& ctx, const spq::core::SpqEngine& engine,
               spq::core::SpqEngine& scratch) {
  const Workload& w = *ctx.workload;
  constexpr std::size_t kQueryCalls = 60;
  constexpr std::size_t kDoorRequests = 16;
  constexpr std::size_t kReopens = 3;
  uint64_t dropped = 0;
  Report& L = ctx.per_layer;
  const auto set_self = [&](const SpanTable& table, const char* name,
                            std::size_t ops) {
    L.Add(std::string("trace.self_ms.") + name, SelfMs(table, name, ops),
          "ms");
  };

  // The workload's own query path: overhead, uncovered share, job phases.
  SpanTable path;
  std::vector<double> traced_ms =
      TraceCalls(kQueryCalls, path, dropped, [&](std::size_t i) {
        auto r = w.cold_query_path ? engine.Execute(ctx.Query(i), w.algo)
                                   : engine.Query(ctx.Query(i), w.algo);
        ctx.Count(r.ok() && SameEntries(r->entries, ctx.Expected(i)),
                  "traced query " + std::to_string(i));
      });
  L.Add("trace.overhead_frac",
        Median(traced_ms) / L.Value("engine.query_p50_ms"), "ratio");
  L.Add("trace.uncovered_frac", path.uncovered_ns / path.root_ns, "ratio");
  for (const char* name : {"job.map", "job.shuffle", "job.reduce",
                           "reduce.join"}) {
    set_self(path, name, kQueryCalls);
  }

  // Warm Query() spans; on a cold workload they need their own window.
  SpanTable warm_table;
  const SpanTable* warm = &path;
  if (w.cold_query_path) {
    TraceCalls(kQueryCalls, warm_table, dropped, [&](std::size_t i) {
      auto r = engine.Query(ctx.Query(i), w.algo);
      ctx.Count(r.ok() && SameEntries(r->entries, ctx.Expected(i)),
                "traced warm query " + std::to_string(i));
    });
    warm = &warm_table;
  }
  set_self(*warm, "query.warm", kQueryCalls);
  set_self(*warm, "query.snapshot_pin", kQueryCalls);

  // Front door: a short burst at the nominal rate, one capture.
  SpanTable door_table;
  Capture(door_table, dropped, nullptr, [&] {
    spq::core::SpqFrontDoor door(engine);
    std::vector<std::future<spq::StatusOr<spq::core::SpqResult>>> futures;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kDoorRequests; ++i) {
      std::this_thread::sleep_until(DueAt(t0, i, w.door_rate_qps));
      futures.push_back(door.Submit(ctx.Query(i), w.algo));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto r = futures[i].get();
      ctx.Count(r.ok() && SameEntries(r->entries, ctx.Expected(i)),
                "traced door request " + std::to_string(i));
    }
  });
  set_self(door_table, "door.batch_close", kDoorRequests);
  set_self(door_table, "door.serve_batch", kDoorRequests);

  // First-touch materialization of a freshly built store, per cell (the
  // rebuild also discards the scratch engine's mutations).
  const spq::Status built = scratch.BuildStore(ctx.max_radius);
  ctx.Count(built.ok(), "BuildStore: " + built.ToString());
  const spq::core::CellStore* store = scratch.store();
  std::vector<spq::geo::CellId> cells;
  for (spq::geo::CellId c = 0; c < store->num_cells(); ++c) {
    if (store->cell_record_count(c) > 0) cells.push_back(c);
  }
  SpanTable serve_table;
  Capture(serve_table, dropped, nullptr, [&] {
    for (spq::geo::CellId c : cells) {
      ctx.Count(store->Serve(c).ok(), "traced Serve of cell " +
                                          std::to_string(c));
    }
  });
  set_self(serve_table, "store.materialize", cells.size());

  // One checkpoint, then reopens of it.
  const auto dfs = MakeDfs(ctx.seed);
  SpanTable checkpoint_table;
  Capture(checkpoint_table, dropped, nullptr, [&] {
    auto epoch = scratch.CheckpointStore(*dfs, "store");
    ctx.Count(epoch.ok(), "traced CheckpointStore");
  });
  set_self(checkpoint_table, "store.checkpoint", 1);
  set_self(checkpoint_table, "wal.append", 1);
  SpanTable open_table;
  for (std::size_t i = 0; i < kReopens; ++i) {
    Capture(open_table, dropped, nullptr, [&] {
      const spq::Status st = scratch.OpenStore(*dfs, "store");
      ctx.Count(st.ok(), "traced OpenStore: " + st.ToString());
    });
  }
  set_self(open_table, "store.recover", kReopens);
  set_self(open_table, "wal.replay", kReopens);
  spq::trace::Clear();
  L.Add("trace.dropped_spans", static_cast<double>(dropped), "count");
}

}  // namespace spqbench
