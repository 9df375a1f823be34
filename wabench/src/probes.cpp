#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dist/backend.hpp"
#include "dist/grid.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"
#include "sparse/csr.hpp"

namespace wabench {
namespace {

/// Keeps probe results observable so no loop is optimized away.
std::atomic<double> g_sink{0.0};

/// Seconds per call of @p f: the best of ten batches of calls, each
/// batch at least @p min_s / 10 long.  Best-of keeps a probe at what
/// the layer can do when another tenant briefly holds the core.
template <class F>
double per_call(F&& f, double min_s = 0.2) {
  f();  // warm caches and lazy set-up
  double best = 1e300;
  for (int batch = 0; batch < 10; ++batch) {
    std::size_t calls = 0;
    const double t0 = now_s();
    double t = t0;
    do {
      f();
      ++calls;
      t = now_s();
    } while (t - t0 < min_s / 10);
    best = std::min(best, (t - t0) / double(calls));
  }
  return best;
}

std::uint64_t spin(std::uint64_t iters, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

double fma_peak_gflops() {
  const bool simd = fma_simd_built() && __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma");
  const std::size_t iters = 1 << 20;
  if (simd) {
    const double s = per_call([&] { g_sink = g_sink + fma_simd_loop(iters); });
    return kSimdFlopsPerIter * double(iters) / s * 1e-9;
  }
  // Portable fallback: ten scalar multiply-add chains.
  const double s = per_call([&] {
    double a[10];
    for (int j = 0; j < 10; ++j) a[j] = 1.0 + 0.01 * j;
    for (std::size_t i = 0; i < iters; ++i) {
      for (double& v : a) v = v * 0.999 + 0.001;
    }
    for (double v : a) g_sink = g_sink + v;
  });
  return 20.0 * double(iters) / s * 1e-9;
}

double gemm_gflops(std::size_t m, std::size_t n, std::size_t k) {
  wa::linalg::Matrix<double> a(m, k), b(k, n), c(m, n, 0.0);
  wa::linalg::fill_random(a, 11);
  wa::linalg::fill_random(b, 12);
  const auto& kern = wa::linalg::active_kernels();
  const double s = per_call(
      [&] { kern.gemm_acc(c.view(), a.view(), b.view(), 1e-3); });
  g_sink = g_sink + c(0, 0);
  return 2.0 * double(m) * double(n) * double(k) / s * 1e-9;
}

double trsm_gflops(std::size_t b, std::size_t cols) {
  wa::linalg::Matrix<double> l = wa::linalg::random_spd(b, 13);
  wa::linalg::Matrix<double> x(b, cols);
  wa::linalg::fill_random(x, 14);
  const wa::linalg::Matrix<double> x0 = x;
  const auto& kern = wa::linalg::active_kernels();
  // Restoring the right-hand side keeps values bounded; its copy is
  // timed separately and subtracted.
  const double copy = per_call([&] { x = x0; }, 0.05);
  const double s = per_call([&] {
    x = x0;
    kern.trsm_left_unit_lower(l.view(), x.view());
  });
  g_sink = g_sink + x(0, 0);
  return double(b) * double(b) * double(cols) / std::max(s - copy, 1e-12) *
         1e-9;
}

double copy_gbs(std::size_t bytes) {
  std::vector<double> a(bytes / sizeof(double), 1.0), b(a.size(), 0.0);
  const double s = per_call([&] {
    std::memcpy(b.data(), a.data(), bytes);
    a[0] = b[1] + 1.0;
  });
  return 2.0 * double(bytes) / s * 1e-9;
}

/// SpMV bytes, computed from the CSR arrays (values, column indices,
/// row pointers, x once and y once), not measured traffic.
double spmv_bytes(const wa::sparse::Csr& A) {
  return 16.0 * double(A.nnz()) + 8.0 * double(A.n + 1) + 16.0 * double(A.n);
}

double empty_dispatch_us(const Shape& sh,
                         std::unique_ptr<wa::dist::Backend> backend) {
  wa::dist::Machine m(sh.P, sh.M1, sh.M2, sh.M3, wa::dist::HwParams{},
                      std::move(backend),
                      std::make_unique<wa::dist::SimTransport>());
  const auto empty = [](std::size_t, wa::memsim::Hierarchy&) {};
  return 1e6 * per_call([&] {
           for (int i = 0; i < 100; ++i) m.run_local_each(empty);
         }) /
         100.0;
}

}  // namespace

double parallel_capacity() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t iters = 20'000'000;
  double t0 = now_s();
  g_sink = g_sink + double(spin(iters, 1));
  const double one = now_s() - t0;
  std::vector<std::thread> spinners;
  std::vector<std::uint64_t> out(nproc);
  t0 = now_s();
  for (unsigned t = 0; t < nproc; ++t) {
    spinners.emplace_back([&out, t, iters] { out[t] = spin(iters, t + 2); });
  }
  for (std::thread& th : spinners) th.join();
  const double all = now_s() - t0;
  for (std::uint64_t v : out) g_sink = g_sink + double(v & 1);
  return double(nproc) * one / all;
}

Probes run_probes(const Shape& shape, std::size_t threads) {
  Probes p;
  p.fma_peak_gflops = fma_peak_gflops();

  // gemm at SUMMA's per-rank shape: an (n/4 x n/4) C block times one
  // k-panel of the 4 x 4 grid.  trsm at an LU panel: b x b unit-lower
  // against the b x (n/4) block row a rank owns.
  const wa::dist::ProcessGrid g(kDenseShape.P);
  const std::size_t bm = g.row_block(kDenseN, 0).sz;
  const std::size_t bn = g.col_block(kDenseN, 0).sz;
  const std::size_t bk = g.k_panels(kDenseN).front().sz;
  p.gemm_gflops = gemm_gflops(bm, bn, bk);
  p.trsm_gflops = trsm_gflops(kLuPanel, bn);

  const std::size_t copy_bytes = std::size_t(32) << 20;
  p.copy_gbs = copy_gbs(copy_bytes);

  const Operators ops = krylov_operators();
  double bytes = 0, secs = 0;
  for (const wa::sparse::Csr* A : {&ops.stencil, &ops.graph}) {
    std::vector<double> x(A->n, 1.0), y(A->n);
    secs += per_call([&] {
      wa::sparse::spmv(*A, x, y);
      x[0] = y[0] * 1e-3;
    });
    bytes += spmv_bytes(*A);
  }
  p.spmv_gbs = bytes / secs * 1e-9;

  p.empty_dispatch_us_serial = empty_dispatch_us(
      shape, std::make_unique<wa::dist::SerialSimBackend>());
  p.empty_dispatch_us_threaded = empty_dispatch_us(
      shape, std::make_unique<wa::dist::ThreadedBackend>(threads));

  // Collectives at the workloads' sizes: CA-CG's Gram allreduce over
  // all ranks (small), and the dense workload's largest hop -- the
  // 2.5D replica block -- over a grid row (large).
  {
    const std::size_t P = kKrylovShape.P;
    const std::size_t small = (2 * kCaS + 1) * (2 * kCaS + 2) / 2;
    const std::size_t large = (kDenseN / 2) * (kDenseN / 4);
    wa::dist::ShmTransport t;
    t.attach(P);
    std::vector<std::size_t> all(P), row = {0, 1, 2, 3};
    for (std::size_t i = 0; i < P; ++i) all[i] = i;
    std::vector<double> small_pay(small, 0.5), large_pay(large, 0.25);
    p.small_op_us = 0.5e6 * per_call([&] {
                      t.reduce(all, small, small_pay.data());
                      t.bcast(all, small, small_pay.data());
                    });
    const std::uint64_t w0 = t.stats().words;
    std::size_t calls = 0;
    const double s = per_call([&] {
      t.bcast(row, large, large_pay.data());
      ++calls;
    });
    const double words = double(t.stats().words - w0) / double(calls);
    p.large_gbs = 8.0 * words / s * 1e-9;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "shm small=%zu words over %zu ranks, large=%zu words over "
                  "4 ranks; ",
                  small, P, large);
    p.notes += buf;
  }

  {
    std::vector<double> builds;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      auto a = wa::dist::make_partition(kKrylovShape.P, ops.stencil);
      auto b = wa::dist::make_partition(kKrylovShape.P, ops.graph);
      builds.push_back(now_s() - t0);
      g_sink = g_sink + double(a->ranks() + b->ranks());
    }
    p.partition_build_s = median(builds);
  }

  {
    wa::memsim::Hierarchy h({shape.M1, shape.M2, shape.M3});
    const double s = per_call([&] {
      for (int i = 0; i < 1000; ++i) {
        h.load(1, 64);
        h.load(0, 16);
        h.store(0, 16);
        h.store(1, 64);
      }
    });
    p.ns_per_event = s / 4000.0 * 1e9;
    g_sink = g_sink + double(h.traffic(0));
  }

  char buf[240];
  std::snprintf(buf, sizeof buf,
                "gemm %zux%zux%zu, trsm %zux%zu, copy 2 x %zu MiB arrays "
                "(L2 %ld KiB, LLC %ld KiB), spmv bytes computed from the "
                "CSR arrays, fma %s",
                bm, bn, bk, kLuPanel, bn, copy_bytes >> 20,
                sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
                sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024,
                fma_simd_built() ? "avx2" : "scalar");
  p.notes += buf;
  return p;
}

}  // namespace wabench
