// wabench: the repository benchmark's runner.
//
//   wabench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out PATH]
//
// One process, one caller, a closed loop: each operation is issued only
// after the previous one finished and was checked.  Every operation
// runs on ThreadedBackend + ShmTransport, the configuration in which
// every layer does real work.  The pool has half the cores, at least
// one and at most four workers: with a worker on every vCPU of a shared
// host, each phase waits for whichever vCPU the host takes away, and
// the tail measures that instead of the program.  Before the loop,
// each pooled input runs once under SerialSimBackend + SimTransport:
// that is the plain single-threaded baseline and the reference every
// timed operation's counters and output bits must equal.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates the
// operations between that machine and a second one whose backend and
// transport are wrapped in the tracing decorators, then runs the layer
// probes, and prints the per-layer metrics.  The last stdout line is
// the result object; the lines before it start with '#'.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "dist/backend.hpp"
#include "dist/machine.hpp"
#include "dist/transport.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace wabench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::size_t threads = 0;  ///< clamp(nproc / 2, 1, 4)
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wabench: %s\nusage: wabench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0') {
    usage(std::string(what) + " must be a non-negative integer");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(k + " needs a value");
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = parse_u64(v, "--seed");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = double(parse_u64(v, "--seconds"));
    } else if (k == "--trace") {
      const std::uint64_t t = parse_u64(v, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
      have_trace = true;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed || !have_trace || a.seconds <= 0) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  a.threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency() / 2, 1, 4);
  return a;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return double(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * double(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return double(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::unique_ptr<wa::dist::Machine> make_machine(
    const Shape& s, std::unique_ptr<wa::dist::Backend> backend,
    std::unique_ptr<wa::dist::Transport> transport) {
  return std::make_unique<wa::dist::Machine>(s.P, s.M1, s.M2, s.M3,
                                             wa::dist::HwParams{},
                                             std::move(backend),
                                             std::move(transport));
}

/// Operations one machine ran in the closed loop, with what each did.
struct Loop {
  wa::dist::Machine* m = nullptr;
  Tracer* tracer = nullptr;  ///< null for the untraced machine
  std::vector<double> seconds;
  std::vector<OpResult> ops;        ///< outputs and counters dropped
  std::vector<LayerCounts> layers;  ///< traced loop only
  double cpu_s = 0;
  double units = 0;
  std::size_t identical = 0;  ///< ops equal to the untraced run's
};

/// Runs operations for @p budget seconds, and until every loop has
/// enough for the tail rule.  @p between runs after every operation,
/// outside its timing.  With several loops (the traced run) the
/// operations alternate between them, each input going to every loop in
/// turn, so host-load swings hit the traced and untraced machines
/// alike.  Every operation is checked against the workload's own
/// references and against the serial+sim run of the same input; a
/// traced operation is also compared with the untraced one.
void closed_loop(const Workload& w, std::vector<Loop>& loops,
                 const std::vector<OpResult>& refs, double budget,
                 Ledger& ledger, const std::function<void()>& between) {
  std::vector<OpResult> untraced(w.pool());
  std::vector<bool> have(w.pool(), false);
  const auto short_of_tail = [&loops] {
    for (const Loop& l : loops) {
      if (l.seconds.size() < kTailMinSamples) return true;
    }
    return false;
  };
  // Warm-up, untimed: one pass over the pool on each untraced machine,
  // so first-touch page faults and cold caches stay out of the samples.
  for (Loop& loop : loops) {
    if (loop.tracer != nullptr) continue;
    for (std::size_t k = 0; k < w.pool(); ++k) {
      OpResult r = w.prepare(k);
      w.run(*loop.m, k, r, nullptr);
    }
  }
  const double start = now_s();
  for (std::size_t i = 0; now_s() - start < budget || short_of_tail(); ++i) {
    Loop& loop = loops[i % loops.size()];
    const std::size_t k = (i / loops.size()) % w.pool();
    Tracer* tracer = loop.tracer;
    OpResult r = w.prepare(k);
    std::uint32_t span = 0;
    if (tracer != nullptr) {
      tracer->begin_op(std::uint32_t(i + 1));
      span = tracer->begin("op");
    }
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    try {
      w.run(*loop.m, k, r, tracer);
      if (tracer != nullptr) tracer->end(span);
    } catch (const std::exception& e) {
      r.failure = std::string("threw: ") + e.what();
      if (tracer != nullptr) tracer->unwind();
    }
    const double t1 = now_s();
    loop.cpu_s += cpu_seconds() - c0;
    if (tracer != nullptr) loop.layers.push_back(tracer->counts());
    if (r.failure.empty()) w.check(k, r);
    if (r.failure.empty()) r.failure = identity_failure(r, refs[k]);
    if (tracer == nullptr && !have[k]) {
      untraced[k] = r;
      have[k] = true;
    } else if (tracer != nullptr && have[k] &&
               identity_failure(r, untraced[k]).empty()) {
      ++loop.identical;
    }
    ledger.record(r);
    loop.seconds.push_back(t1 - t0);
    loop.units += r.units;
    r.output = std::vector<double>();  // release, not just clear
    r.calls = std::vector<Counters>();
    loop.ops.push_back(std::move(r));
    between();
  }
}

double sum_seconds(const Loop& l) {
  double s = 0;
  for (double v : l.seconds) s += v;
  return s;
}

template <class F>
double op_mean(const Loop& l, F&& f) {
  if (l.ops.empty()) return 0.0;
  double s = 0;
  for (const OpResult& r : l.ops) s += double(f(r));
  return s / double(l.ops.size());
}

template <class F>
double layer_mean(const Loop& l, F&& f) {
  if (l.layers.empty()) return 0.0;
  double s = 0;
  for (const LayerCounts& c : l.layers) s += double(f(c));
  return s / double(l.layers.size());
}

template <class F>
std::uint64_t layer_max(const Loop& l, F&& f) {
  std::uint64_t m = 0;
  for (const LayerCounts& c : l.layers) m = std::max<std::uint64_t>(m, f(c));
  return m;
}

std::string context_json(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "# context {";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + kv[i].first + "\": " + kv[i].second;
  }
  return out + "}";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int run(const Args& a) {
  const double host_start = parallel_capacity();
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  const Shape shape = w->shape();

  // Serial-backend + sim-transport pass: the baseline and the reference.
  w->build_partitions();
  std::vector<OpResult> refs;
  std::vector<double> baseline_s;
  bool refs_ok = true;
  {
    auto m = make_machine(shape, std::make_unique<wa::dist::SerialSimBackend>(),
                          std::make_unique<wa::dist::SimTransport>());
    for (std::size_t k = 0; k < w->pool(); ++k) {
      OpResult r = w->prepare(k);
      const double t0 = now_s();
      w->run(*m, k, r, nullptr);
      baseline_s.push_back(now_s() - t0);
      w->check(k, r);
      if (!r.failure.empty()) {
        std::printf("# reference input %zu failed its check: %s\n", k,
                    r.failure.c_str());
        refs_ok = false;
      }
      refs.push_back(std::move(r));
    }
  }

  // Set-up: partitions, Machine (shm arenas), and the backend pool,
  // started by one empty phase.  The first one builds the machine the
  // loop times; the untraced loop sets up and tears down another after
  // every operation, so that setup_s, their median, spans the same
  // spells of host load as the operations do.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double t0 = now_s();
    w->build_partitions();
    auto fresh = make_machine(
        shape, std::make_unique<wa::dist::ThreadedBackend>(a.threads),
        std::make_unique<wa::dist::ShmTransport>());
    fresh->run_local_each([](std::size_t, wa::memsim::Hierarchy&) {});
    setup_s.push_back(now_s() - t0);
    return fresh;
  };
  std::unique_ptr<wa::dist::Machine> m = set_up();

  // The timed loop.  Traced runs add a second machine whose backend
  // and transport are wrapped in the tracing decorators; only one of
  // the two pools is ever busy.
  Ledger ledger;
  Tracer tracer;
  std::vector<Loop> loops(a.trace ? 2 : 1);
  loops[0].m = m.get();
  std::unique_ptr<wa::dist::Machine> tm;
  if (a.trace) {
    tm = make_machine(
        shape,
        std::make_unique<TracingBackend>(
            std::make_unique<wa::dist::ThreadedBackend>(a.threads), tracer,
            a.threads),
        std::make_unique<TracingTransport>(
            std::make_unique<wa::dist::ShmTransport>(), tracer));
    tm->run_local_each([](std::size_t, wa::memsim::Hierarchy&) {});
    loops[1].m = tm.get();
    loops[1].tracer = &tracer;
  }
  const std::function<void()> between = [&] {
    if (!a.trace) set_up();  // torn down here, untimed
  };
  closed_loop(*w, loops, refs, a.seconds, ledger, between);
  m.reset();
  tm.reset();
  const Loop& plain = loops[0];

  Probes probes;
  if (a.trace) {
    if (!a.trace_out.empty()) tracer.write(a.trace_out);
    probes = run_probes(shape, a.threads);
  }
  const double host_end = parallel_capacity();

  // ---- report --------------------------------------------------------
  const Tail t = tail(plain.seconds);
  const double p50 = median(plain.seconds);
  const double ops = double(plain.seconds.size());
  std::printf("# %s seed=%llu threads=%zu: %s\n", w->name(),
              static_cast<unsigned long long>(a.seed), a.threads,
              w->describe().c_str());
  std::printf("%s\n",
              context_json({
                  {"ops", std::to_string(plain.seconds.size())},
                  {"tail_percentile", num(t.percentile)},
                  {"tail_beyond", std::to_string(t.beyond)},
                  {"failed_frac", num(ledger.failed_frac())},
                  {"first_failure", str(ledger.first_failure())},
                  {"wall_s_per_op", num(sum_seconds(plain) / ops)},
                  {"proc.cpu_s_per_op", num(plain.cpu_s / ops)},
                  {"host.parallel_capacity.start", num(host_start)},
                  {"host.parallel_capacity.end", num(host_end)},
                  {"baseline.serial_sim_op_p50_s", num(median(baseline_s))},
              })
                  .c_str());

  std::printf("# samples");
  for (double v : plain.seconds) std::printf(" %.5f", v);
  std::printf("\n");
  const bool correct = refs_ok && ledger.failed() == 0;
  if (!a.trace) {
    // The exact counts are the same for every operation on an input
    // (each is checked against its reference), so they are averaged
    // over the pool, not over however many operations fit the time.
    double nvm = 0, nw = 0;
    for (const OpResult& r : refs) {
      nvm += double(r.nvm_writes) / double(refs.size());
      nw += double(r.network_words) / double(refs.size());
    }
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_p50_s", p50, "s"},
        {"op_tail_s", t.value, "s"},
        {"throughput_per_s", plain.units / sum_seconds(plain), "1/s"},
        {"success_frac", 1.0 - ledger.failed_frac(), "ratio"},
        {"nvm_writes_per_rank", nvm, "words"},
        {"network_words_per_rank", nw, "words"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("%s\n", result_json(correct, ledger.attempted(),
                                    ledger.failed(), metrics,
                                    end_to_end_schema())
                            .c_str());
    return 0;
  }

  const Loop& traced = loops[1];
  std::printf("# traced: %zu ops, %zu spans kept, %zu dropped, %zu nested "
              "phases, largest transport hop %llu words; probes: %s\n",
              traced.seconds.size(), tracer.spans().size(), tracer.dropped(),
              tracer.nested(),
              static_cast<unsigned long long>(
                  layer_max(traced, [](const LayerCounts& c) {
                    return c.max_hop_words;
                  })),
              probes.notes.c_str());
  std::printf("# self time per span name, over the kept spans:");
  for (const auto& [name, secs] : tracer.self_times()) {
    std::printf(" %s=%.4gs", name.c_str(), secs);
  }
  std::printf("\n");

  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  const auto layer = [&traced](double LayerCounts::*field) {
    return layer_mean(traced, [field](const LayerCounts& c) { return c.*field; });
  };
  const auto count = [&traced](auto LayerCounts::*field) {
    return layer_mean(traced,
                      [field](const LayerCounts& c) { return double(c.*field); });
  };
  const auto op = [&plain](double OpResult::*field) {
    return op_mean(plain, [field](const OpResult& r) { return r.*field; });
  };
  const double op_wall = sum_seconds(plain) / ops;
  double solves = 0, converged = 0, iters = 0, max_res = 0;
  for (const OpResult& r : plain.ops) {
    solves += double(r.solves);
    converged += double(r.converged);
    iters += double(r.iterations);
    max_res = std::max(max_res, r.max_rel_residual);
  }
  double moved = 0, verified = 0;
  for (const OpResult& r : traced.ops) {
    moved += double(r.moved_words);
    verified += double(r.verified_words);
  }
  const double base = median(baseline_s);
  const std::vector<Metric> metrics = {
      {"linalg.fma_peak_gflops", probes.fma_peak_gflops, "GF/s"},
      {"linalg.gemm_gflops", probes.gemm_gflops, "GF/s"},
      {"linalg.trsm_gflops", probes.trsm_gflops, "GF/s"},
      {"linalg.gemm_peak_frac",
       ratio(probes.gemm_gflops, probes.fma_peak_gflops), "ratio"},
      {"memsim.events_per_op", count(&LayerCounts::memsim_events), "count"},
      {"memsim.ns_per_event", probes.ns_per_event, "ns"},
      {"sparse.copy_gbs", probes.copy_gbs, "GB/s"},
      {"sparse.spmv_gbs", probes.spmv_gbs, "GB/s"},
      {"sparse.spmv_bw_frac", ratio(probes.spmv_gbs, probes.copy_gbs),
       "ratio"},
      {"backend.phases_per_op", count(&LayerCounts::phases), "count"},
      {"backend.phase_s_per_op", layer(&LayerCounts::phase_s), "s"},
      {"backend.rank_fn_s_per_op", layer(&LayerCounts::rank_fn_s), "s"},
      {"backend.dispatch_s_per_op", layer(&LayerCounts::dispatch_s), "s"},
      {"backend.imbalance",
       ratio(layer(&LayerCounts::max_rank_s), layer(&LayerCounts::mean_rank_s)),
       "ratio"},
      {"backend.parallel_eff",
       ratio(layer(&LayerCounts::rank_fn_s), layer(&LayerCounts::worker_s)),
       "ratio"},
      {"backend.empty_dispatch_us.serial", probes.empty_dispatch_us_serial,
       "us"},
      {"backend.empty_dispatch_us.threaded", probes.empty_dispatch_us_threaded,
       "us"},
      {"transport.ops_per_op.send", count(&LayerCounts::sends), "count"},
      {"transport.ops_per_op.bcast", count(&LayerCounts::bcasts), "count"},
      {"transport.ops_per_op.reduce", count(&LayerCounts::reduces), "count"},
      {"transport.words_per_op", count(&LayerCounts::transport_words),
       "words"},
      {"transport.busy_s_per_op", layer(&LayerCounts::transport_s), "s"},
      {"transport.small_op_us", probes.small_op_us, "us"},
      {"transport.large_gbs", probes.large_gbs, "GB/s"},
      {"transport.verified_frac", ratio(verified, moved), "ratio"},
      {"partition.build_s", probes.partition_build_s, "s"},
      {"krylov.iters_per_solve", ratio(iters, solves), "count"},
      {"krylov.max_rel_residual", max_res, "ratio"},
      {"krylov.converged_frac", ratio(converged, solves), "ratio"},
      {"machine.local_s_per_op", op(&OpResult::local_s), "s"},
      {"machine.comm_s_per_op", op(&OpResult::comm_s), "s"},
      {"machine.unattributed_s_per_op",
       op_wall - op(&OpResult::local_s) - op(&OpResult::comm_s), "s"},
      {"machine.model_s_per_op", op(&OpResult::model_s), "s"},
      {"machine.model_over_measured", ratio(op(&OpResult::model_s), op_wall),
       "ratio"},
      {"proc.cpu_s_per_op", plain.cpu_s / ops, "s"},
      {"baseline.serial_sim_op_p50_s", base, "s"},
      {"backend.threaded_speedup", ratio(base, p50), "ratio"},
      {"host.parallel_capacity.start", host_start, "cores"},
      {"host.parallel_capacity.end", host_end, "cores"},
      {"trace.overhead_frac", ratio(median(traced.seconds), p50) - 1.0,
       "ratio"},
      {"trace.identical_frac",
       ratio(double(traced.identical), double(traced.seconds.size())),
       "ratio"},
  };
  std::printf("%s\n", result_json(correct, ledger.attempted(), ledger.failed(),
                                  metrics, per_layer_schema())
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace wabench

int main(int argc, char** argv) {
  const wabench::Args a = wabench::parse(argc, argv);
  try {
    return wabench::run(a);
  } catch (const std::invalid_argument& e) {
    wabench::usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wabench: %s\n", e.what());
    return 1;
  }
}
