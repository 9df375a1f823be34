#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace wabench {

Counters snapshot(const wa::dist::Machine& m) {
  Counters c(m.nprocs());
  for (std::size_t p = 0; p < m.nprocs(); ++p) c[p] = m.proc(p);
  return c;
}

namespace {

bool same_counters(const Counters& a, const Counters& b) {
  const auto eq = [](const wa::dist::ChanCount& x,
                     const wa::dist::ChanCount& y) {
    return x.words == y.words && x.messages == y.messages;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (!eq(a[p].nw, b[p].nw) || !eq(a[p].l3_read, b[p].l3_read) ||
        !eq(a[p].l3_write, b[p].l3_write) || !eq(a[p].l2_read, b[p].l2_read) ||
        !eq(a[p].l2_write, b[p].l2_write)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string identity_failure(const OpResult& got, const OpResult& ref) {
  if (got.calls.size() != ref.calls.size()) return "call count differs";
  for (std::size_t i = 0; i < got.calls.size(); ++i) {
    if (!same_counters(got.calls[i], ref.calls[i])) {
      return "counters of call " + std::to_string(i) +
             " differ from serial+sim";
    }
  }
  if (got.output.size() != ref.output.size() ||
      (!got.output.empty() &&
       std::memcmp(got.output.data(), ref.output.data(),
                   got.output.size() * sizeof(double)) != 0)) {
    return "output bits differ from serial+sim";
  }
  if (got.verified_words != got.moved_words) {
    return "transport verified " + std::to_string(got.verified_words) +
           " of " + std::to_string(got.moved_words) + " moved words";
  }
  return "";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

Tail tail(const std::vector<double>& run) {
  if (run.empty()) return {};
  const std::size_t n = run.size();
  if (n < kTailMinSamples) {
    return {*std::max_element(run.begin(), run.end()), 100.0, 0};
  }
  std::vector<double> block_tails;
  for (std::size_t b = 0; b < kTailBlocks; ++b) {
    std::vector<double> v(run.begin() + std::ptrdiff_t(b * n / kTailBlocks),
                          run.begin() +
                              std::ptrdiff_t((b + 1) * n / kTailBlocks));
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size();
    // 0-based rank: at most the percentile cap, and enough samples above.
    const std::size_t rank = std::min(m * kTailMaxPercentile / 100 - 1,
                                      m - kTailBeyondPerBlock - 1);
    block_tails.push_back(v[rank]);
  }
  std::sort(block_tails.begin(), block_tails.end());
  const double value = std::max(block_tails[kTailBlocks / 2], median(run));
  const auto beyond = std::size_t(std::count_if(
      run.begin(), run.end(), [value](double x) { return x > value; }));
  return {value, 100.0 * double(n - beyond) / double(n), beyond};
}

void Ledger::record(const OpResult& r) {
  ++attempted_;
  if (!r.failure.empty()) {
    ++failed_;
    if (first_failure_.empty()) first_failure_ = r.failure;
  }
}

const std::vector<std::pair<const char*, const char*>>& end_to_end_schema() {
  static const std::vector<std::pair<const char*, const char*>> s = {
      {"setup_s", "s"},
      {"op_p50_s", "s"},
      {"op_tail_s", "s"},
      {"throughput_per_s", "1/s"},
      {"success_frac", "ratio"},
      {"nvm_writes_per_rank", "words"},
      {"network_words_per_rank", "words"},
      {"peak_rss_mb", "MB"},
  };
  return s;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_schema() {
  static const std::vector<std::pair<const char*, const char*>> s = {
      {"linalg.fma_peak_gflops", "GF/s"},
      {"linalg.gemm_gflops", "GF/s"},
      {"linalg.trsm_gflops", "GF/s"},
      {"linalg.gemm_peak_frac", "ratio"},
      {"memsim.events_per_op", "count"},
      {"memsim.ns_per_event", "ns"},
      {"sparse.copy_gbs", "GB/s"},
      {"sparse.spmv_gbs", "GB/s"},
      {"sparse.spmv_bw_frac", "ratio"},
      {"backend.phases_per_op", "count"},
      {"backend.phase_s_per_op", "s"},
      {"backend.rank_fn_s_per_op", "s"},
      {"backend.dispatch_s_per_op", "s"},
      {"backend.imbalance", "ratio"},
      {"backend.parallel_eff", "ratio"},
      {"backend.empty_dispatch_us.serial", "us"},
      {"backend.empty_dispatch_us.threaded", "us"},
      {"transport.ops_per_op.send", "count"},
      {"transport.ops_per_op.bcast", "count"},
      {"transport.ops_per_op.reduce", "count"},
      {"transport.words_per_op", "words"},
      {"transport.busy_s_per_op", "s"},
      {"transport.small_op_us", "us"},
      {"transport.large_gbs", "GB/s"},
      {"transport.verified_frac", "ratio"},
      {"partition.build_s", "s"},
      {"krylov.iters_per_solve", "count"},
      {"krylov.max_rel_residual", "ratio"},
      {"krylov.converged_frac", "ratio"},
      {"machine.local_s_per_op", "s"},
      {"machine.comm_s_per_op", "s"},
      {"machine.unattributed_s_per_op", "s"},
      {"machine.model_s_per_op", "s"},
      {"machine.model_over_measured", "ratio"},
      {"proc.cpu_s_per_op", "s"},
      {"baseline.serial_sim_op_p50_s", "s"},
      {"backend.threaded_speedup", "ratio"},
      {"host.parallel_capacity.start", "cores"},
      {"host.parallel_capacity.end", "cores"},
      {"trace.overhead_frac", "ratio"},
      {"trace.identical_frac", "ratio"},
  };
  return s;
}

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<Metric>& metrics,
    const std::vector<std::pair<const char*, const char*>>& schema) {
  if (metrics.size() != schema.size()) {
    throw std::logic_error("result_json: " + std::to_string(metrics.size()) +
                           " metrics for a schema of " +
                           std::to_string(schema.size()));
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (m.name != schema[i].first || m.unit != schema[i].second) {
      throw std::logic_error("result_json: metric " + m.name + " [" + m.unit +
                             "] where the schema has " + schema[i].first +
                             " [" + schema[i].second + "]");
    }
    if (!std::isfinite(m.value)) {
      throw std::logic_error("result_json: metric " + m.name +
                             " is not finite");
    }
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace wabench
