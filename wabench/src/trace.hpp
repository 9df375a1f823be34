#pragma once
// Tracing for the benchmark's traced run, recorded from outside the
// library: a decorating Backend and a decorating Transport forward
// every call to the real implementation and record spans around it,
// and the runner opens the operation and algorithm-call spans.
//
// Span tree:  op -> call -> phase -> rank
//             op -> call -> send | bcast | reduce
//
// Spans live in memory and are written once, when the run ends.  The
// decorators only observe: they never touch a counter or a payload,
// which the runner checks by comparing every traced operation's
// counters and output bits against the untraced ones.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/backend.hpp"
#include "dist/transport.hpp"

namespace wabench {

/// Counts taken at the layer boundaries for one operation.
struct LayerCounts {
  std::size_t phases = 0;
  double phase_s = 0;      ///< wall of every backend phase
  double rank_fn_s = 0;    ///< summed rank-function time
  double dispatch_s = 0;   ///< phase wall not covered by rank functions
  double max_rank_s = 0;   ///< per phase: slowest rank, summed
  double mean_rank_s = 0;  ///< per phase: mean rank, summed
  double worker_s = 0;     ///< per phase: workers x phase wall, summed
  std::uint64_t memsim_events = 0;  ///< load/store messages simulated
  std::size_t sends = 0, bcasts = 0, reduces = 0;
  std::uint64_t transport_words = 0;
  std::uint64_t max_hop_words = 0;  ///< largest single transport call
  double transport_s = 0;
};

class Tracer {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 for an operation span
    std::uint32_t op;      ///< the operation every span belongs to
    const char* name;      ///< static string
    std::int32_t rank;     ///< -1 unless a rank function
    double t0, t1;
  };

  /// At most this many spans are kept; counts continue past it.
  static constexpr std::size_t kMaxSpans = 500'000;

  Tracer() : owner_(std::this_thread::get_id()) {}

  /// Start operation @p op; resets the per-operation counts.
  void begin_op(std::uint32_t op);
  std::uint32_t begin(const char* name);  ///< child of the open span
  void end(std::uint32_t id);
  /// Close every open span (an operation that threw).
  void unwind();
  /// Record a finished span whose parent is @p parent.
  void add(std::uint32_t parent, const char* name, std::int32_t rank,
           double t0, double t1);
  std::uint32_t open() const { return stack_.empty() ? 0 : stack_.back().id; }

  /// True on the thread that created the tracer (the orchestration
  /// thread, the only one that issues phases and transport calls).
  bool on_owner_thread() const {
    return std::this_thread::get_id() == owner_;
  }

  LayerCounts& counts() { return counts_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }
  /// Phases issued from a worker thread (nested local phases): they
  /// are forwarded untraced, and only counted here.
  void count_nested() { nested_.fetch_add(1, std::memory_order_relaxed); }
  std::size_t nested() const { return nested_.load(); }

  /// Self time per span name: duration minus the union of its
  /// children's intervals, summed over spans.  Pairs (name, seconds).
  std::vector<std::pair<std::string, double>> self_times() const;

  /// Write the spans as JSON lines: [id, parent, op, name, rank, t0, t1].
  void write(const std::string& path) const;

 private:
  std::thread::id owner_;
  std::vector<Span> spans_;
  struct Open {
    std::uint32_t id;
    std::size_t at;  ///< index in spans_, or kDropped
    double t0;
  };
  static constexpr std::size_t kDropped = std::size_t(-1);
  std::vector<Open> stack_;
  std::atomic<std::size_t> nested_{0};
  std::uint32_t next_id_ = 1;
  std::uint32_t op_ = 0;
  std::size_t dropped_ = 0;
  LayerCounts counts_;
};

/// Backend decorator: a "phase" span per run/run_replicated, a "rank"
/// span per rank function, memsim events counted from the finished
/// hierarchies.  Phases issued from a worker thread (nested local
/// phases) are forwarded untraced and only counted.
class TracingBackend final : public wa::dist::Backend {
 public:
  TracingBackend(std::unique_ptr<wa::dist::Backend> inner, Tracer& tracer,
                 std::size_t workers)
      : inner_(std::move(inner)), tracer_(tracer), workers_(workers) {}

  const char* name() const override { return inner_->name(); }
  void run(const std::vector<std::size_t>& ranks,
           const std::vector<std::size_t>& capacities, const LocalFn& fn,
           const Sink& sink) override;
  void run_replicated(const std::vector<std::size_t>& ranks,
                      const std::vector<std::size_t>& capacities,
                      const PhaseFn& fn, const Sink& sink) override;

 private:
  std::unique_ptr<wa::dist::Backend> inner_;
  Tracer& tracer_;
  std::size_t workers_;
};

/// Transport decorator: one span per send/bcast/reduce, with counts.
class TracingTransport final : public wa::dist::Transport {
 public:
  TracingTransport(std::unique_ptr<wa::dist::Transport> inner,
                   Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  bool moves_data() const override { return inner_->moves_data(); }
  void attach(std::size_t P) override { inner_->attach(P); }
  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload) override;
  void bcast(const std::vector<std::size_t>& group, std::size_t words,
             const double* payload) override;
  void reduce(const std::vector<std::size_t>& group, std::size_t words,
              const double* payload) override;
  wa::dist::TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<wa::dist::Transport> inner_;
  Tracer& tracer_;
};

}  // namespace wabench
