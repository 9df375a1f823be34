#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common.hpp"

namespace wabench {
namespace {

/// Length of the union of @p iv (sorted in place).
double union_length(std::vector<std::pair<double, double>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, lo = 0, hi = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    if (i != 0 && iv[i].first <= hi) {
      hi = std::max(hi, iv[i].second);
      continue;
    }
    total += hi - lo;
    lo = iv[i].first;
    hi = iv[i].second;
  }
  return total + (hi - lo);
}

}  // namespace

void Tracer::begin_op(std::uint32_t op) {
  op_ = op;
  counts_ = LayerCounts{};
}

std::uint32_t Tracer::begin(const char* name) {
  const std::uint32_t id = next_id_++;
  std::size_t at = kDropped;
  if (spans_.size() < kMaxSpans) {
    at = spans_.size();
    spans_.push_back(Span{id, open(), op_, name, -1, 0, 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{id, at, now_s()});
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (stack_.empty() || stack_.back().id != id) {
    throw std::logic_error("Tracer: spans must end innermost first");
  }
  const Open o = stack_.back();
  stack_.pop_back();
  if (o.at != kDropped) {
    spans_[o.at].t0 = o.t0;
    spans_[o.at].t1 = now_s();
  }
}

void Tracer::unwind() {
  while (!stack_.empty()) end(stack_.back().id);
}

void Tracer::add(std::uint32_t parent, const char* name, std::int32_t rank,
                 double t0, double t1) {
  const std::uint32_t id = next_id_++;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{id, parent, op_, name, rank, t0, t1});
}

std::vector<std::pair<std::string, double>> Tracer::self_times() const {
  // Group the child intervals by parent, clipped to the parent.
  std::vector<std::int64_t> at(next_id_, -1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    at[spans_[i].id] = std::int64_t(i);
  }
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0 || at[s.parent] < 0) continue;
    const Span& p = spans_[std::size_t(at[s.parent])];
    const double a = std::max(s.t0, p.t0), b = std::min(s.t1, p.t1);
    if (a < b) kids[std::size_t(at[s.parent])].push_back({a, b});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        (spans_[i].t1 - spans_[i].t0) - union_length(kids[i]);
  }
  return {self.begin(), self.end()};
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("Tracer: cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const Span& s : spans_) {
    std::fprintf(f, "[%u, %u, %u, \"%s\", %d, %.9f, %.9f]\n", s.id, s.parent,
                 s.op, s.name, s.rank, s.t0 - origin, s.t1 - origin);
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("Tracer: failed writing " + path);
}

namespace {

std::uint64_t events(const wa::memsim::Hierarchy& h) {
  std::uint64_t e = 0;
  for (std::size_t s = 0; s + 1 < h.levels(); ++s) {
    e += h.loads_messages(s) + h.stores_messages(s);
  }
  return e;
}

}  // namespace

void TracingBackend::run(const std::vector<std::size_t>& ranks,
                         const std::vector<std::size_t>& capacities,
                         const LocalFn& fn, const Sink& sink) {
  if (!tracer_.on_owner_thread()) {
    tracer_.count_nested();
    inner_->run(ranks, capacities, fn, sink);
    return;
  }
  LayerCounts& c = tracer_.counts();
  // Each rank writes only its own slot; the inner backend's done
  // barrier orders those writes before the reads below.
  std::size_t top = 0;
  for (std::size_t p : ranks) top = std::max(top, p + 1);
  std::vector<std::size_t> slot(top);
  for (std::size_t i = 0; i < ranks.size(); ++i) slot[ranks[i]] = i;
  std::vector<std::pair<double, double>> when(ranks.size());
  const LocalFn timed = [&](std::size_t p, wa::memsim::Hierarchy& h) {
    const double t0 = now_s();
    fn(p, h);
    when[slot[p]] = {t0, now_s()};
  };
  std::uint64_t ev = 0;
  const Sink counted = [&](std::size_t p, const wa::memsim::Hierarchy& h) {
    ev += events(h);
    sink(p, h);
  };

  const std::uint32_t id = tracer_.begin("phase");
  const double t0 = now_s();
  try {
    inner_->run(ranks, capacities, timed, counted);
  } catch (...) {
    tracer_.end(id);
    throw;
  }
  const double wall = now_s() - t0;
  tracer_.end(id);

  double sum = 0, slowest = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double d = when[i].second - when[i].first;
    sum += d;
    slowest = std::max(slowest, d);
    tracer_.add(id, "rank", std::int32_t(ranks[i]), when[i].first,
                when[i].second);
  }
  const double covered = union_length(when);

  ++c.phases;
  c.phase_s += wall;
  c.rank_fn_s += sum;
  c.dispatch_s += std::max(0.0, wall - covered);
  if (!ranks.empty()) {
    c.max_rank_s += slowest;
    c.mean_rank_s += sum / double(ranks.size());
  }
  c.worker_s += double(std::max<std::size_t>(
                    1, std::min(workers_, ranks.size()))) * wall;
  c.memsim_events += ev;
}

void TracingBackend::run_replicated(const std::vector<std::size_t>& ranks,
                                    const std::vector<std::size_t>& capacities,
                                    const PhaseFn& fn, const Sink& sink) {
  if (!tracer_.on_owner_thread()) {
    tracer_.count_nested();
    inner_->run_replicated(ranks, capacities, fn, sink);
    return;
  }
  LayerCounts& c = tracer_.counts();
  // The symmetric phase is simulated once and its counters copied to
  // every rank, so it counts as one rank function and its events once.
  double f0 = 0, f1 = 0;
  std::uint64_t ev = 0;
  const PhaseFn timed = [&](wa::memsim::Hierarchy& h) {
    f0 = now_s();
    fn(h);
    f1 = now_s();
    ev += events(h);
  };
  const std::uint32_t id = tracer_.begin("phase");
  const double t0 = now_s();
  try {
    inner_->run_replicated(ranks, capacities, timed, sink);
  } catch (...) {
    tracer_.end(id);
    throw;
  }
  const double wall = now_s() - t0;
  tracer_.end(id);
  if (f1 > f0) tracer_.add(id, "rank", -1, f0, f1);
  ++c.phases;
  c.phase_s += wall;
  c.rank_fn_s += f1 - f0;
  c.dispatch_s += std::max(0.0, wall - (f1 - f0));
  c.max_rank_s += f1 - f0;
  c.mean_rank_s += f1 - f0;
  c.worker_s += wall;
  c.memsim_events += ev;
}

namespace {

/// Opens a transport span on construction, closes it and adds its
/// duration to the counts on destruction.
class OpSpan {
 public:
  OpSpan(Tracer& t, const char* name, std::size_t& kind, std::size_t words)
      : t_(t), id_(t.begin(name)), t0_(now_s()) {
    ++kind;
    t.counts().transport_words += words;
    t.counts().max_hop_words =
        std::max<std::uint64_t>(t.counts().max_hop_words, words);
  }
  ~OpSpan() {
    t_.counts().transport_s += now_s() - t0_;
    t_.end(id_);
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
  double t0_;
};

}  // namespace

void TracingTransport::send(std::size_t src, std::size_t dst,
                            std::size_t words, const double* payload) {
  const OpSpan s(tracer_, "send", tracer_.counts().sends, words);
  inner_->send(src, dst, words, payload);
}

void TracingTransport::bcast(const std::vector<std::size_t>& group,
                             std::size_t words, const double* payload) {
  const OpSpan s(tracer_, "bcast", tracer_.counts().bcasts, words);
  inner_->bcast(group, words, payload);
}

void TracingTransport::reduce(const std::vector<std::size_t>& group,
                              std::size_t words, const double* payload) {
  const OpSpan s(tracer_, "reduce", tracer_.counts().reduces, words);
  inner_->reduce(group, words, payload);
}

}  // namespace wabench
