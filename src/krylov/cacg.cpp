#include "krylov/cacg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "krylov/cacg_detail.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::krylov {

using detail::BasisCoeffs;
using detail::Small;

SolveResult ca_cg(const sparse::Csr& A, std::span<const double> b,
                  std::span<double> x, const CaCgOptions& opt) {
  const std::size_t n = A.n;
  const std::size_t s = opt.s;
  if (s == 0) throw std::invalid_argument("ca_cg: s >= 1");
  const std::size_t m = 2 * s + 1;
  const BasisCoeffs bc =
      detail::make_basis(A, s, opt.basis == CaCgBasis::kNewton);

  SolveResult out;
  std::vector<double> r(n), p(n), tmp(n);

  sparse::spmv(A, x, tmp);
  out.traffic.slow_reads += A.nnz() + n;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - tmp[i];
    p[i] = r[i];
  }
  out.traffic.slow_reads += 2 * n;
  out.traffic.slow_writes += 2 * n;

  double delta = sparse::dot(r, r);
  out.traffic.slow_reads += 2 * n;
  const double bb = sparse::dot(b, b);
  const double stop = opt.tol * opt.tol * bb;
  // A non-finite delta or <b, b> (an Inf or NaN in b or x) retires the
  // solve unconverged before its first step, as in cg.
  const bool finite = std::isfinite(delta) && std::isfinite(bb);

  const std::size_t bw = std::max<std::size_t>(1, A.bandwidth());
  std::size_t block_rows = opt.block_rows;
  if (block_rows == 0) {
    block_rows = std::max<std::size_t>(4 * s * bw, 256);
  }

  // Restart bookkeeping: the scaled-monomial basis can degenerate in
  // finite precision (classic s-step behaviour); when the recovered
  // residual disagrees badly with the coordinate-space delta we fall
  // back to a steepest-descent restart.
  std::size_t restarts = 0;
  constexpr std::size_t kMaxRestarts = 25;

  std::vector<double> x_snap(n), p_snap(n), r_snap(n);

  for (std::size_t outer = 0; finite && outer < opt.max_outer; ++outer) {
    if (delta <= stop) {
      out.converged = true;
      break;
    }
    const double delta_enter = delta;
    x_snap.assign(x.begin(), x.end());
    p_snap = p;
    r_snap = r;

    Small G(m);

    // Basis columns layout: cols 0..s = P, cols s+1..2s = R.
    std::vector<std::vector<double>> V;  // only used in kStored mode

    if (opt.mode == CaCgMode::kStored) {
      V.assign(m, std::vector<double>(n, 0.0));
      V[0] = p;
      V[s + 1] = r;
      out.traffic.slow_reads += 2 * n;
      out.traffic.slow_writes += 2 * n;  // basis heads materialized
      for (std::size_t j = 0; j < s; ++j) {
        sparse::spmv(A, V[j], V[j + 1]);
        for (std::size_t i = 0; i < n; ++i) {
          V[j + 1][i] = (V[j + 1][i] - bc.theta[j] * V[j][i]) / bc.sigma;
        }
        out.traffic.slow_reads += A.nnz() + n;
        out.traffic.slow_writes += n;  // a full basis column hits slow memory
        out.traffic.flops += 2 * A.nnz() + n;
      }
      for (std::size_t j = 0; j + 1 < s; ++j) {
        sparse::spmv(A, V[s + 1 + j], V[s + 1 + j + 1]);
        for (std::size_t i = 0; i < n; ++i) {
          V[s + 1 + j + 1][i] =
              (V[s + 1 + j + 1][i] - bc.theta[j] * V[s + 1 + j][i]) /
              bc.sigma;
        }
        out.traffic.slow_reads += A.nnz() + n;
        out.traffic.slow_writes += n;
        out.traffic.flops += 2 * A.nnz() + n;
      }
      // Gram matrix: stream the basis once.
      {
        std::vector<const double*> vp(m);
        for (std::size_t a = 0; a < m; ++a) vp[a] = V[a].data();
        linalg::active_kernels().gram_upper_acc(G.a.data(), m, vp.data(), 0,
                                                n);
      }
      linalg::gram_mirror(G.a.data(), m);
      out.traffic.slow_reads += std::uint64_t(m) * n;
      out.traffic.flops += std::uint64_t(m) * m * n;
    } else {
      // ---- Streaming pass 1: blockwise basis + Gram accumulation.
      // Basis blocks live in a fast buffer and are discarded (D2),
      // so they never produce slow-memory writes.
      for (std::size_t lo = 0; lo < n; lo += block_rows) {
        const std::size_t hi = std::min(n, lo + block_rows);
        const std::size_t ext = s * bw;
        const std::size_t elo = lo >= ext ? lo - ext : 0;
        const std::size_t ehi = std::min(n, hi + ext);
        const std::size_t len = ehi - elo;

        std::vector<std::vector<double>> W(m, std::vector<double>(len, 0.0));
        for (std::size_t i = 0; i < len; ++i) {
          W[0][i] = p[elo + i];
          W[s + 1][i] = r[elo + i];
        }
        out.traffic.slow_reads += 2 * len;  // ghosted p and r reads

        auto advance = [&](std::size_t col_from, std::size_t col_to,
                           std::size_t level, double theta) {
          // Rows of col_to computable inside the local extent.
          const std::size_t vlo =
              elo == 0 ? 0 : elo + level * bw;
          const std::size_t vhi = ehi == n ? n : ehi - level * bw;
          for (std::size_t i = vlo; i < vhi; ++i) {
            W[col_to][i - elo] =
                (detail::row_dot(A, i, W[col_from].data(),
                                 -std::ptrdiff_t(elo)) -
                 theta * W[col_from][i - elo]) /
                bc.sigma;
            out.traffic.slow_reads +=
                2 * (A.row_ptr[i + 1] - A.row_ptr[i]);  // A values+cols
            out.traffic.flops += 2 * (A.row_ptr[i + 1] - A.row_ptr[i]);
          }
        };
        for (std::size_t j = 0; j < s; ++j) {
          advance(j, j + 1, j + 1, bc.theta[j]);
        }
        for (std::size_t j = 0; j + 1 < s; ++j) {
          advance(s + 1 + j, s + 1 + j + 1, j + 1, bc.theta[j]);
        }

        std::vector<const double*> wp(m);
        for (std::size_t a = 0; a < m; ++a) wp[a] = W[a].data();
        linalg::active_kernels().gram_upper_acc(G.a.data(), m, wp.data(),
                                                lo - elo, hi - elo);
        out.traffic.flops += std::uint64_t(m) * m * (hi - lo);
      }
      linalg::gram_mirror(G.a.data(), m);
    }

    // ---- Inner s steps in coordinates (all O(s^2), fast memory).
    std::vector<double> xh(m, 0.0), ph(m, 0.0), rh(m, 0.0);
    ph[0] = 1.0;
    rh[s + 1] = 1.0;
    const auto inner = detail::inner_steps(s, bc, G, xh, ph, rh, delta,
                                           out.traffic);
    if (inner.breakdown) break;
    out.iterations += s;

    // ---- Recover [p, r, x] = [P, R] [ph, rh, xh] + [0, 0, x].
    if (opt.mode == CaCgMode::kStored) {
      for (std::size_t i = 0; i < n; ++i) {
        double np = 0, nr = 0, nx = x[i];
        for (std::size_t a = 0; a < m; ++a) {
          np += V[a][i] * ph[a];
          nr += V[a][i] * rh[a];
          nx += V[a][i] * xh[a];
        }
        p[i] = np;
        r[i] = nr;
        x[i] = nx;
      }
      out.traffic.slow_reads += std::uint64_t(m) * n + n;
      out.traffic.slow_writes += 3 * n;
      out.traffic.flops += 6ull * m * n;
    } else {
      // ---- Streaming pass 2: recompute the basis blockwise and fuse
      // the recovery; this is the doubling of basis work the paper
      // trades for the Theta(s) write reduction.
      std::vector<double> pn(n), rn(n);
      for (std::size_t lo = 0; lo < n; lo += block_rows) {
        const std::size_t hi = std::min(n, lo + block_rows);
        const std::size_t ext = s * bw;
        const std::size_t elo = lo >= ext ? lo - ext : 0;
        const std::size_t ehi = std::min(n, hi + ext);
        const std::size_t len = ehi - elo;

        std::vector<std::vector<double>> W(m, std::vector<double>(len, 0.0));
        for (std::size_t i = 0; i < len; ++i) {
          W[0][i] = p[elo + i];
          W[s + 1][i] = r[elo + i];
        }
        out.traffic.slow_reads += 2 * len;

        auto advance = [&](std::size_t col_from, std::size_t col_to,
                           std::size_t level, double theta) {
          const std::size_t vlo = elo == 0 ? 0 : elo + level * bw;
          const std::size_t vhi = ehi == n ? n : ehi - level * bw;
          for (std::size_t i = vlo; i < vhi; ++i) {
            W[col_to][i - elo] =
                (detail::row_dot(A, i, W[col_from].data(),
                                 -std::ptrdiff_t(elo)) -
                 theta * W[col_from][i - elo]) /
                bc.sigma;
            out.traffic.slow_reads +=
                2 * (A.row_ptr[i + 1] - A.row_ptr[i]);
            out.traffic.flops += 2 * (A.row_ptr[i + 1] - A.row_ptr[i]);
          }
        };
        for (std::size_t j = 0; j < s; ++j) {
          advance(j, j + 1, j + 1, bc.theta[j]);
        }
        for (std::size_t j = 0; j + 1 < s; ++j) {
          advance(s + 1 + j, s + 1 + j + 1, j + 1, bc.theta[j]);
        }

        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t li = i - elo;
          double np = 0, nr = 0, nx = x[i];
          for (std::size_t a = 0; a < m; ++a) {
            np += W[a][li] * ph[a];
            nr += W[a][li] * rh[a];
            nx += W[a][li] * xh[a];
          }
          pn[i] = np;
          rn[i] = nr;
          x[i] = nx;
        }
        out.traffic.slow_reads += hi - lo;   // x
        out.traffic.slow_writes += 3 * (hi - lo);  // x, p, r only
        out.traffic.flops += 6ull * m * (hi - lo);
      }
      p.swap(pn);
      r.swap(rn);
    }

    // Recompute delta from the *recovered* residual: in exact
    // arithmetic it equals the coordinate-space value; a large
    // disagreement flags basis breakdown.
    const double delta_true = sparse::dot(r, r);
    out.traffic.slow_reads += 2 * n;
    if (!std::isfinite(delta_true) || delta_true > 16.0 * delta_enter) {
      // Basis breakdown: roll back this outer iteration and take the
      // same s steps with classical CG instead (always stable for an
      // SPD system).  Its traffic is charged at classical-CG rates.
      if (++restarts > kMaxRestarts) break;
      out.iterations -= s;  // the rolled-back inner steps do not count
      std::copy(x_snap.begin(), x_snap.end(), x.begin());
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = p_snap[i];
        r[i] = r_snap[i];
      }
      delta = delta_enter;
      std::vector<double> w(n);
      for (std::size_t j = 0; j < s && delta > stop; ++j) {
        sparse::spmv(A, p, w);
        const double den = sparse::dot(p, w);
        if (den <= 0 || !std::isfinite(den)) break;
        const double alpha = delta / den;
        for (std::size_t i = 0; i < n; ++i) {
          x[i] += alpha * p[i];
          r[i] -= alpha * w[i];
        }
        const double dn = sparse::dot(r, r);
        const double beta = dn / delta;
        delta = dn;
        for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
        out.traffic.slow_reads += A.nnz() + 9 * n;
        out.traffic.slow_writes += 4 * n;
        out.traffic.flops += 2 * A.nnz() + 10 * n;
        ++out.iterations;
      }
      continue;
    }
    delta = delta_true;
  }

  std::vector<double> ax(n);
  sparse::spmv(A, x, ax);
  double rnrm = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dd = b[i] - ax[i];
    rnrm += dd * dd;
  }
  out.residual_norm = std::sqrt(rnrm);
  if (!out.converged) {
    out.converged = std::isfinite(out.residual_norm) &&
                    out.residual_norm <= opt.tol * sparse::norm2(b) * 10.0;
  }
  return out;
}

}  // namespace wa::krylov
