// Microbenchmarks for the per-message hot paths of a GGD process: the
// vector-time closure (ComputeV from scratch, and the incremental update
// one received vector message makes) and the edge-precise reachability
// walk.
// These bound the CPU cost a site pays per GGD message as structures grow.
#include <benchmark/benchmark.h>

#include "ggd/process.hpp"
#include "logkeeping/lazy_logkeeping.hpp"

namespace cgc {
namespace {

ProcessId P(std::uint64_t v) { return ProcessId{v}; }

/// A process whose log knows a ring of `n` predecessors (worst case for
/// the closure: every history row contributes transitive entries).
GgdProcess make_loaded_process(std::size_t n) {
  GgdProcess p(P(1), false);
  LazyLogKeeping lk;
  for (std::size_t i = 2; i <= n + 1; ++i) {
    p.log().self_row().increment(P(i));
    DependencyVector v;
    DependencyVector row;
    for (std::size_t j = 2; j <= n + 1; ++j) {
      v.set(P(j), Timestamp::creation(j));
      if ((i + j) % 3 == 0) {
        row.set(P(j), Timestamp::creation(j));
      }
    }
    GgdMessage m;
    m.from = P(i);
    m.to = P(1);
    m.v = v;
    m.self_row = row;
    (void)p.receive(m, [](ProcessId) { return false; });
  }
  return p;
}

void BM_ComputeV(benchmark::State& state) {
  GgdProcess p = make_loaded_process(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.compute_v());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeV)->Range(4, 256)->Complexity();

/// One vector message into the loaded process: the sender's own entry
/// rises (a monotone change), so receive() updates the cached closure
/// incrementally — re-expanding the sender's history row alone — where
/// BM_ComputeV above re-closes over every row. Includes receive()'s
/// decision walk.
void BM_ReceiveVector(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  GgdProcess p = make_loaded_process(n);
  const auto is_root = [](ProcessId) { return false; };
  std::uint64_t index = n + 2;
  for (auto _ : state) {
    GgdMessage m;
    m.from = P(2);
    m.to = P(1);
    m.v.set(P(2), Timestamp::creation(++index));
    benchmark::DoNotOptimize(p.receive(m, is_root));
  }
  if (p.removed()) {
    state.SkipWithError("the loaded process collected itself");
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReceiveVector)->Range(4, 256)->Complexity();

void BM_WalkToRoot(benchmark::State& state) {
  GgdProcess p = make_loaded_process(static_cast<std::size_t>(state.range(0)));
  const auto is_root = [](ProcessId) { return false; };
  for (auto _ : state) {
    FlatSet<ProcessId> missing, evidence, consulted;
    benchmark::DoNotOptimize(p.walk_to_root(is_root, missing, evidence, consulted));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WalkToRoot)->Range(4, 256)->Complexity();

void BM_TimestampMerge(benchmark::State& state) {
  const Timestamp a = Timestamp::creation(41);
  const Timestamp b = Timestamp::destruction(41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Timestamp::merge(a, b));
  }
}
BENCHMARK(BM_TimestampMerge);

void BM_VectorMerge(benchmark::State& state) {
  DependencyVector a;
  DependencyVector b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    a.set(P(static_cast<std::uint64_t>(i)),
          Timestamp::creation(static_cast<std::uint64_t>(i + 1)));
    b.set(P(static_cast<std::uint64_t>(i + state.range(0) / 2)),
          Timestamp::creation(static_cast<std::uint64_t>(i + 2)));
  }
  for (auto _ : state) {
    DependencyVector c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_VectorMerge)->Range(8, 512)->Complexity();

}  // namespace
}  // namespace cgc

BENCHMARK_MAIN();
