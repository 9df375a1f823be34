#include "krylov/cg.hpp"

#include <cmath>
#include <vector>

namespace wa::krylov {

SolveResult cg(const sparse::Csr& A, std::span<const double> b,
               std::span<double> x, std::size_t max_iters, double tol) {
  const std::size_t n = A.n;
  SolveResult out;
  std::vector<double> r(n), p(n), w(n);

  // r = b - A x ; p = r.
  sparse::spmv(A, x, w);
  out.traffic.slow_reads += A.nnz() + n;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - w[i];
    p[i] = r[i];
  }
  out.traffic.slow_reads += 2 * n;
  out.traffic.slow_writes += 2 * n;

  double delta = sparse::dot(r, r);
  out.traffic.slow_reads += 2 * n;
  const double bb = sparse::dot(b, b);
  const double stop = tol * tol * bb;
  // An Inf or NaN in b or x makes delta or <b, b> non-finite, and then
  // the stopping test means nothing (Inf <= Inf passes, NaN never
  // does): retire unconverged before the first step.
  const bool finite = std::isfinite(delta) && std::isfinite(bb);

  for (std::size_t it = 0; finite && it < max_iters; ++it) {
    if (delta <= stop) {
      out.converged = true;
      break;
    }
    // w = A p  (writes w: n words).
    sparse::spmv(A, p, w);
    out.traffic.slow_reads += A.nnz() + n;
    out.traffic.slow_writes += n;
    out.traffic.flops += 2 * A.nnz();

    const double alpha = delta / sparse::dot(p, w);
    out.traffic.slow_reads += 2 * n;

    // x += alpha p ; r -= alpha w  (writes x and r: 2n words).
    sparse::axpy(alpha, p, x);
    sparse::axpy(-alpha, w, r);
    out.traffic.slow_reads += 4 * n;
    out.traffic.slow_writes += 2 * n;
    out.traffic.flops += 4 * n;

    const double delta_new = sparse::dot(r, r);
    out.traffic.slow_reads += 2 * n;
    const double beta = delta_new / delta;
    delta = delta_new;

    // p = r + beta p  (writes p: n words).
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    out.traffic.slow_reads += 2 * n;
    out.traffic.slow_writes += n;
    out.traffic.flops += 2 * n;
    ++out.iterations;
  }

  // Residual check (untracked diagnostic).
  std::vector<double> ax(n);
  sparse::spmv(A, x, ax);
  double rn = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = b[i] - ax[i];
    rn += d * d;
  }
  out.residual_norm = std::sqrt(rn);
  if (!out.converged) {
    out.converged = std::isfinite(out.residual_norm) &&
                    out.residual_norm <= tol * sparse::norm2(b);
  }
  return out;
}

}  // namespace wa::krylov
