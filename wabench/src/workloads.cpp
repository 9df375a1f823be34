#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>

#include "dist/krylov.hpp"
#include "dist/lu.hpp"
#include "dist/mm25d.hpp"
#include "dist/summa.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace wabench {
namespace {

using wa::dist::Machine;
using wa::linalg::Matrix;
using wa::linalg::MatrixView;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seed of stream @p tag, item @p k, derived from the run's seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t k) {
  return mix(mix(mix(seed) ^ tag) ^ k);
}

double max_abs(const double* a, std::size_t n) {
  double m = 0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i]));
  return m;
}

double max_abs_diff(const double* a, const double* b, std::size_t n) {
  double m = 0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// ---- dense ---------------------------------------------------------------

class Dense final : public Workload {
 public:
  static constexpr std::size_t kPool = 2;

  explicit Dense(std::uint64_t seed) {
    const std::size_t n = kDenseN;
    for (std::size_t k = 0; k < kPool; ++k) {
      Input in;
      in.a = wa::linalg::random_spd(n, unsigned(derive(seed, 1, k)));
      in.b = Matrix<double>(n, n);
      wa::linalg::fill_random(in.b, unsigned(derive(seed, 2, k)));
      // References: the plain linalg kernels, not the blocked ones the
      // distributed algorithms run.
      in.c_ref = Matrix<double>(n, n, 0.0);
      wa::linalg::gemm_acc(in.c_ref.view(), in.a.view(), in.b.view());
      in.lu_ref = in.a;
      wa::linalg::lu_nopivot_unblocked(in.lu_ref.view());
      inputs_.push_back(std::move(in));
    }
  }

  const char* name() const override { return "dense"; }
  Shape shape() const override { return kDenseShape; }
  std::size_t pool() const override { return kPool; }

  // Output layout: C (SUMMA), C (2.5D), LU (right), LU (left).
  OpResult prepare(std::size_t k) const override {
    const std::size_t nn = kDenseN * kDenseN;
    OpResult r;
    r.output.assign(4 * nn, 0.0);
    std::copy_n(inputs_[k].a.data(), nn, r.output.data() + 2 * nn);
    std::copy_n(inputs_[k].a.data(), nn, r.output.data() + 3 * nn);
    return r;
  }

  void run(Machine& m, std::size_t k, OpResult& r,
           Tracer* tracer) const override {
    const Input& in = inputs_[k];
    const auto a = in.a.view();
    const auto b = in.b.view();
    algorithm_call(m, tracer, "summa_l3_ool2", r, [&] {
      wa::dist::summa_l3_ool2(m, block(r, 0), a, b);
    });
    algorithm_call(m, tracer, "mm_25d", r, [&] {
      wa::dist::Mm25dOptions opt;
      opt.c = 2;
      opt.use_l3 = true;
      opt.data_in_l3 = true;
      wa::dist::mm_25d(m, block(r, 1), a, b, opt);
    });
    algorithm_call(m, tracer, "lu_right_looking", r, [&] {
      wa::dist::lu_right_looking(m, block(r, 2), kLuPanel);
    });
    algorithm_call(m, tracer, "lu_left_looking", r, [&] {
      wa::dist::lu_left_looking(m, block(r, 3), kLuPanel, kLuBatch);
    });
  }

  void check(std::size_t k, OpResult& r) const override {
    const std::size_t nn = kDenseN * kDenseN;
    const Input& in = inputs_[k];
    const char* what[4] = {"summa_l3_ool2", "mm_25d", "lu_right_looking",
                           "lu_left_looking"};
    for (std::size_t i = 0; i < 4; ++i) {
      const double* ref = i < 2 ? in.c_ref.data() : in.lu_ref.data();
      // Blocked kernels reorder sums: allow rounding growth, no more.
      const double bound = (i < 2 ? 1e-10 : 1e-8) * std::max(1.0, max_abs(ref, nn));
      const double err = max_abs_diff(r.output.data() + i * nn, ref, nn);
      if (err <= bound) {
        r.units += 1;
      } else if (r.failure.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s: max|err| %.3e above %.3e",
                      what[i], err, bound);
        r.failure = buf;
      }
    }
  }

  std::string describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "n=%zu P=%zu M1=%zu M2=%zu LU b=%zu s=%zu; pool of %zu "
                  "seeded SPD matrices",
                  kDenseN, kDenseShape.P, kDenseShape.M1, kDenseShape.M2,
                  kLuPanel, kLuBatch, kPool);
    return buf;
  }

 private:
  struct Input {
    Matrix<double> a, b, c_ref, lu_ref;
  };

  static MatrixView<double> block(OpResult& r, std::size_t i) {
    return MatrixView<double>(r.output.data() + i * kDenseN * kDenseN,
                              kDenseN, kDenseN, kDenseN);
  }

  std::vector<Input> inputs_;
};

// ---- Krylov --------------------------------------------------------------

enum class Method { kCg, kStored, kStreaming };

class Krylov final : public Workload {
 public:
  Krylov(std::uint64_t seed, std::size_t nrhs, std::size_t pool)
      : nrhs_(nrhs), pool_(pool), ops_(krylov_operators()) {
    for (std::size_t k = 0; k < pool_; ++k) {
      std::vector<std::vector<double>> per_solve;
      for (std::size_t s = 0; s < kSolves; ++s) {
        const wa::sparse::Csr& A = op(s);
        std::vector<double> b(A.n * nrhs_);
        std::uint64_t x = derive(seed, 3, k * kSolves + s);
        for (double& v : b) {
          x = mix(x);
          v = double(x >> 11) * 0x1.0p-52 - 1.0;  // uniform in [-1, 1)
        }
        per_solve.push_back(std::move(b));
      }
      rhs_.push_back(std::move(per_solve));
    }
  }

  const char* name() const override {
    return nrhs_ == 1 ? "cacg_single" : "cacg_batch16";
  }
  Shape shape() const override { return kKrylovShape; }
  std::size_t pool() const override { return pool_; }

  void build_partitions() override {
    stencil_part_ = wa::dist::make_partition(kKrylovShape.P, ops_.stencil);
    graph_part_ = wa::dist::make_partition(kKrylovShape.P, ops_.graph);
  }

  OpResult prepare(std::size_t) const override {
    OpResult r;
    r.output.assign(total_unknowns(), 0.0);
    return r;
  }

  void run(Machine& m, std::size_t k, OpResult& r,
           Tracer* tracer) const override {
    std::size_t off = 0;
    for (std::size_t s = 0; s < kSolves; ++s) {
      const wa::sparse::Csr& A = op(s);
      const wa::dist::Partition& part =
          s < 3 ? *stencil_part_ : *graph_part_;
      const std::span<const double> b(rhs_[k][s]);
      const std::span<double> x(r.output.data() + off, A.n * nrhs_);
      off += A.n * nrhs_;
      wa::krylov::CaCgOptions opt;
      opt.s = kCaS;
      opt.tol = kKrylovTol;
      opt.mode = method(s) == Method::kStreaming
                     ? wa::krylov::CaCgMode::kStreaming
                     : wa::krylov::CaCgMode::kStored;
      algorithm_call(m, tracer, kCallNames[s], r, [&] {
        if (nrhs_ == 1) {
          r.krylov.push_back(
              method(s) == Method::kCg
                  ? wa::dist::cg(m, part, A, b, x, kMaxIters, kKrylovTol)
                  : wa::dist::ca_cg(m, part, A, b, x, opt));
          return;
        }
        const wa::dist::KrylovBatchResult br =
            method(s) == Method::kCg
                ? wa::dist::cg_batch(m, part, A, b, x, nrhs_, kMaxIters,
                                     kKrylovTol)
                : wa::dist::ca_cg_batch(m, part, A, b, x, nrhs_, opt);
        r.krylov.insert(r.krylov.end(), br.rhs.begin(), br.rhs.end());
      });
    }
  }

  void check(std::size_t k, OpResult& r) const override {
    if (r.krylov.size() != kSolves * nrhs_) {
      r.failure = "expected " + std::to_string(kSolves * nrhs_) +
                  " solve results, got " + std::to_string(r.krylov.size());
      return;
    }
    std::size_t off = 0, idx = 0;
    for (std::size_t s = 0; s < kSolves; ++s) {
      const wa::sparse::Csr& A = op(s);
      std::vector<double> ax(A.n);
      for (std::size_t j = 0; j < nrhs_; ++j, ++idx, off += A.n) {
        const std::span<const double> b(rhs_[k][s].data() + j * A.n, A.n);
        const std::span<const double> x(r.output.data() + off, A.n);
        wa::sparse::spmv(A, x, ax);
        double rr = 0;
        for (std::size_t i = 0; i < A.n; ++i) {
          rr += (b[i] - ax[i]) * (b[i] - ax[i]);
        }
        const double rel = std::sqrt(rr) / wa::sparse::norm2(b);
        const wa::dist::KrylovResult& kr = r.krylov[idx];
        ++r.solves;
        r.iterations += kr.iterations;
        r.max_rel_residual = std::max(r.max_rel_residual, rel);
        const bool ok = kr.converged && rel <= 10.0 * kKrylovTol;
        if (ok) {
          ++r.converged;
          r.units += 1;
        } else if (r.failure.empty()) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s rhs %zu: converged=%d, true residual %.3e",
                        kCallNames[s], j, int(kr.converged), rel);
          r.failure = buf;
        }
      }
    }
  }

  std::string describe() const override {
    // Computed, not measured: owned rows of A (values + column indices)
    // plus x, r, p, b and the 2s+1 stored basis columns per RHS.
    const auto kib = [this](const wa::sparse::Csr& A) {
      const double P = double(kKrylovShape.P);
      const double a_bytes = (16.0 * double(A.nnz()) + 8.0 * double(A.n)) / P;
      const double v_bytes = double(nrhs_) * double(2 * kCaS + 1 + 4) *
                             std::ceil(double(A.n) / P) * 8.0;
      return (a_bytes + v_bytes) / 1024.0;
    };
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "stencil %zux%zu (nnz %zu), small-world n=%zu (nnz %zu), "
                  "P=%zu, %zu RHS per solve, pool %zu; computed per-rank "
                  "working set %.0f KiB (stencil) / %.0f KiB (graph) vs "
                  "%ld KiB L2",
                  kStencilEdge, kStencilEdge, ops_.stencil.nnz(), ops_.graph.n,
                  ops_.graph.nnz(), kKrylovShape.P, nrhs_, pool_,
                  kib(ops_.stencil), kib(ops_.graph),
                  sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024);
    return buf;
  }

 private:
  static constexpr std::size_t kSolves = 6;
  static constexpr std::size_t kMaxIters = 2000;
  static constexpr const char* kCallNames[kSolves] = {
      "cg.stencil", "cacg_stored.stencil", "cacg_streaming.stencil",
      "cg.graph",   "cacg_stored.graph",   "cacg_streaming.graph"};

  static Method method(std::size_t s) { return Method(s % 3); }
  const wa::sparse::Csr& op(std::size_t s) const {
    return s < 3 ? ops_.stencil : ops_.graph;
  }
  std::size_t total_unknowns() const {
    return 3 * nrhs_ * (ops_.stencil.n + ops_.graph.n);
  }

  std::size_t nrhs_, pool_;
  Operators ops_;
  std::vector<std::vector<std::vector<double>>> rhs_;  // [k][solve]
  std::unique_ptr<wa::dist::Partition> stencil_part_, graph_part_;
};

}  // namespace

Operators krylov_operators() {
  return {wa::sparse::stencil_2d(kStencilEdge, kStencilEdge, 1),
          wa::sparse::small_world_graph(kGraphN, 2, kGraphN / 64, 7)};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "dense") return std::make_unique<Dense>(seed);
  if (name == "cacg_single") return std::make_unique<Krylov>(seed, 1, 4);
  if (name == "cacg_batch16") {
    return std::make_unique<Krylov>(seed, kBatch, 2);
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected dense, cacg_single or "
                              "cacg_batch16)");
}

void algorithm_call(Machine& m, Tracer* tracer, const char* name, OpResult& r,
                    const std::function<void()>& f) {
  m.reset();
  const double l0 = m.local_wall_seconds(), c0 = m.comm_wall_seconds();
  const wa::dist::TransportStats s0 = m.transport().stats();
  const std::uint32_t id = tracer != nullptr ? tracer->begin(name) : 0;
  f();
  if (tracer != nullptr) tracer->end(id);
  const wa::dist::TransportStats s1 = m.transport().stats();
  r.local_s += m.local_wall_seconds() - l0;
  r.comm_s += m.comm_wall_seconds() - c0;
  r.moved_words += s1.words - s0.words;
  r.verified_words += s1.verified - s0.verified;
  r.model_s += m.cost();
  Counters c = snapshot(m);
  std::uint64_t nvm = 0, nw = 0;
  for (const wa::dist::ProcTraffic& t : c) {
    nvm = std::max(nvm, t.l3_write.words);
    nw = std::max(nw, t.nw.words);
  }
  r.nvm_writes += nvm;
  r.network_words += nw;
  r.calls.push_back(std::move(c));
}

}  // namespace wabench
