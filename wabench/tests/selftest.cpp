// Self-test of the benchmark's own statistics and checks:
//   - the tail rule (median over five blocks of each block's highest
//     percentile, at most the 90th, with >= 2 samples beyond it);
//   - failure counting: an injected non-converged solve, an injected
//     counter mismatch, flipped output bits and unverified transport
//     words each count as a failed operation;
//   - the tracing decorators change no counter and no output bit;
//   - self time from spans;
//   - the result line's schema.  The sample lines it prints ("# schema
//     ...") are checked against BENCHMARK.json by run.py --selftest.
//
// Exit 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "dist/backend.hpp"
#include "dist/machine.hpp"
#include "dist/transport.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace wabench;

int g_failures = 0, g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::unique_ptr<wa::dist::Machine> machine(
    const Shape& s, std::unique_ptr<wa::dist::Backend> b,
    std::unique_ptr<wa::dist::Transport> t) {
  return std::make_unique<wa::dist::Machine>(s.P, s.M1, s.M2, s.M3,
                                             wa::dist::HwParams{},
                                             std::move(b), std::move(t));
}

void test_stats() {
  // 100 samples, blocks of 20: each block's tail is its 18th value
  // (the 90th percentile, 2 beyond).  Block b holds 100 b + 1 .. 100 b
  // + 20, shuffled, so the block tails are 18, 118, ..., 418 and the
  // median block's is 218.
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < 20; ++i) v.push_back(100 * b + 1 + (i * 7) % 20);
  }
  const Tail t = tail(v);
  expect(t.value == 218 && t.beyond == 42 && t.percentile == 58,
         "tail is the median of the block tails, placed in the whole run");

  // One spell of slow operations over a single block moves that
  // block's tail but not the median.
  std::vector<double> spell(50, 1.0);
  for (int i = 0; i < 10; ++i) spell[i] = 3.0;
  spell[20] = spell[21] = 2.0;
  expect(tail(spell).value == 1.0,
         "a slow spell in one block leaves the tail at the quiet blocks'");

  // Blocks of 3: the cap (rank 3 * 90 / 100 - 1 = 1) and the 2-beyond
  // rule (rank 0) pick the minima 1, 2, 3, 10, 13; their median, 3, is
  // below the run's median, 8, which is taken instead.
  const Tail t15 = tail({5, 1, 9, 2, 8, 7, 3, 6, 4, 10, 12, 11, 15, 13, 14});
  expect(t15.value == 8 && t15.beyond == 7,
         "with 15 samples the tail is at least the run's median");

  // Two slow blocks, then three quiet ones with a few slower
  // operations: the block tails' median (1) is below the run's (3).
  std::vector<double> sped_up(50, 1.0);
  for (int i = 0; i < 20; ++i) sped_up[i] = 4.0;
  for (int b = 2; b < 5; ++b) sped_up[10 * b] = sped_up[10 * b + 1] = 3.0;
  expect(tail(sped_up).value == 3.0,
         "a tail is never below the run's median");
  const Tail t14 = tail({3, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14});
  expect(t14.value == 14 && t14.beyond == 0,
         "with fewer samples than the rule needs the tail is the maximum");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5,
         "median of odd and even samples");
}

void test_failure_counting() {
  // A real cacg_single operation on the serial+sim reference machine.
  std::unique_ptr<Workload> w = make_workload("cacg_single", 7);
  w->build_partitions();
  auto m = machine(w->shape(), std::make_unique<wa::dist::SerialSimBackend>(),
                   std::make_unique<wa::dist::SimTransport>());
  OpResult good = w->prepare(0);
  w->run(*m, 0, good, nullptr);
  w->check(0, good);
  expect(good.failure.empty(), "an unmodified solve round passes: " +
                                   good.failure);
  expect(identity_failure(good, good).empty(), "a result equals itself");

  Ledger ledger;
  ledger.record(good);

  OpResult stalled = good;  // an injected non-converged solve
  stalled.units = 0;
  stalled.solves = stalled.converged = stalled.iterations = 0;
  stalled.krylov[2].converged = false;
  w->check(0, stalled);
  expect(!stalled.failure.empty() && stalled.units == good.units - 1,
         "a non-converged solve fails its operation and loses its unit");
  ledger.record(stalled);

  OpResult drift = good;  // an injected counter mismatch
  drift.calls[1][3].l3_write.words += 1;
  drift.failure = identity_failure(drift, good);
  expect(!drift.failure.empty(), "a counter mismatch is a failure");
  ledger.record(drift);

  OpResult bits = good;
  bits.output[5] = std::nextafter(bits.output[5], 1e300);
  bits.failure = identity_failure(bits, good);
  expect(!bits.failure.empty(), "a one-ulp output change is a failure");
  ledger.record(bits);

  OpResult unverified = good;
  unverified.moved_words = 10;
  unverified.verified_words = 9;
  unverified.failure = identity_failure(unverified, good);
  expect(!unverified.failure.empty(),
         "transport words that failed verification are a failure");
  ledger.record(unverified);

  expect(ledger.attempted() == 5 && ledger.failed() == 4 &&
             ledger.failed_frac() == 0.8,
         "the ledger counts 4 failed of 5 attempted");
}

void test_decorators_are_transparent() {
  std::unique_ptr<Workload> w = make_workload("cacg_single", 3);
  w->build_partitions();
  auto plain = machine(w->shape(), std::make_unique<wa::dist::ThreadedBackend>(2),
                       std::make_unique<wa::dist::ShmTransport>());
  OpResult a = w->prepare(1);
  w->run(*plain, 1, a, nullptr);

  Tracer tracer;
  auto traced = machine(
      w->shape(),
      std::make_unique<TracingBackend>(
          std::make_unique<wa::dist::ThreadedBackend>(2), tracer, 2),
      std::make_unique<TracingTransport>(
          std::make_unique<wa::dist::ShmTransport>(), tracer));
  OpResult b = w->prepare(1);
  tracer.begin_op(1);
  const std::uint32_t op = tracer.begin("op");
  w->run(*traced, 1, b, &tracer);
  tracer.end(op);
  expect(identity_failure(b, a).empty(),
         "traced counters and bits equal untraced: " + identity_failure(b, a));
  const LayerCounts& c = tracer.counts();
  expect(c.phases > 0 && c.bcasts > 0 && c.reduces > 0 && c.sends > 0 &&
             c.memsim_events > 0,
         "the decorators saw phases, collectives, sends and memsim events");
  expect(b.moved_words > 0 && b.moved_words == b.verified_words,
         "shm moved and verified every word");
}

void test_self_time() {
  Tracer t;
  t.begin_op(1);
  const std::uint32_t op = t.begin("op");
  const double a = now_s();
  volatile double x = 0;
  for (int i = 0; i < 200000; ++i) x = x + 1.0;
  const double b = now_s();
  t.add(op, "child", 0, a, b);
  t.add(op, "child", 1, a, b);  // overlaps the first: counted once
  t.end(op);
  const Tracer::Span& s = t.spans().front();
  double op_self = -1, child_self = -1;
  for (const auto& [name, v] : t.self_times()) {
    if (name == "op") op_self = v;
    if (name == "child") child_self = v;
  }
  expect(std::abs(op_self - ((s.t1 - s.t0) - (b - a))) < 1e-12,
         "parent self time excludes the union of its children");
  expect(std::abs(child_self - 2 * (b - a)) < 1e-12,
         "leaf self time is its whole duration");
}

void test_schema() {
  for (const auto* schema : {&end_to_end_schema(), &per_layer_schema()}) {
    std::vector<Metric> ms;
    double v = 1.25;
    for (const auto& [name, unit] : *schema) ms.push_back({name, v += 1, unit});
    const std::string line = result_json(true, 12, 0, ms, *schema);
    std::printf("# schema %s\n", line.c_str());

    bool threw = false;
    std::vector<Metric> bad = ms;
    bad[0].name = "renamed";
    try {
      result_json(true, 12, 0, bad, *schema);
    } catch (const std::logic_error&) {
      threw = true;
    }
    expect(threw, "a renamed metric is refused");
    threw = false;
    bad = ms;
    bad.back().value = std::numeric_limits<double>::quiet_NaN();
    try {
      result_json(true, 12, 0, bad, *schema);
    } catch (const std::logic_error&) {
      threw = true;
    }
    expect(threw, "a non-finite metric is refused");
    threw = false;
    bad = ms;
    bad.pop_back();
    try {
      result_json(true, 12, 0, bad, *schema);
    } catch (const std::logic_error&) {
      threw = true;
    }
    expect(threw, "a missing metric is refused");
  }
}

}  // namespace

int main() {
  try {
    test_stats();
    test_failure_counting();
    test_decorators_are_transparent();
    test_self_time();
    test_schema();
  } catch (const std::exception& e) {
    std::printf("FAIL: threw %s\n", e.what());
    return 1;
  }
  std::printf("selftest: %d of %d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}
