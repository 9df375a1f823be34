#include "dist/krylov.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/detail.hpp"
#include "krylov/cacg_detail.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::dist {
namespace {

namespace kd = wa::krylov::detail;

using krylov::CaCgBasis;
using krylov::CaCgMode;
using krylov::CaCgOptions;

std::size_t rows_nnz(const sparse::Csr& A, std::size_t lo, std::size_t hi) {
  if (hi <= lo) return 0;  // clamped-empty validity window
  return A.row_ptr[hi] - A.row_ptr[lo];
}

/// Words each rank receives under a halo exchange, per vector.
std::vector<std::size_t> recv_rows(const std::vector<HaloTransfer>& halos,
                                   std::size_t P) {
  std::vector<std::size_t> r(P, 0);
  for (const HaloTransfer& t : halos) r[t.dst] += t.rows;
  return r;
}

/// Apply fn(glo, ghi, lb) to each maximal globally-contiguous row run
/// of box @p b -- one run per (z, y) mesh line, a single run for the
/// 1-D partition's linear boxes -- with lb the local index of glo
/// inside the enclosing extent box @p ebox.  Runs ascend in global
/// index, so rank-ordered partial sums are deterministic.
template <class Fn>
void for_each_run_local(const Partition& part, const NodeBox& b,
                        const NodeBox& ebox, Fn&& fn) {
  if (b.empty()) return;
  const std::size_t w = ebox.dx(), h = ebox.dy();
  for (std::size_t z = b.z0; z < b.z1; ++z) {
    for (std::size_t y = b.y0; y < b.y1; ++y) {
      const std::size_t base = part.global_index(0, y, z);
      const std::size_t lbase =
          ((z - ebox.z0) * h + (y - ebox.y0)) * w + (b.x0 - ebox.x0);
      fn(base + b.x0, base + b.x1, lbase);
    }
  }
}

/// Owned box @p o split into streaming chunks of ~@p block_rows owned
/// words: along x for linear boxes (exactly the PR 4 row blocks),
/// along y otherwise (whole tile lines with their nz pencils).
std::vector<NodeBox> stream_chunks(const Partition& part, const NodeBox& o,
                                   std::size_t block_rows) {
  std::vector<NodeBox> out;
  if (o.empty()) return out;
  if (part.ny() == 1 && part.nz() == 1) {
    for (std::size_t lo = o.x0; lo < o.x1; lo += block_rows) {
      NodeBox c = o;
      c.x0 = lo;
      c.x1 = std::min(o.x1, lo + block_rows);
      out.push_back(c);
    }
    return out;
  }
  const std::size_t line = std::max<std::size_t>(1, o.dx() * o.dz());
  const std::size_t ych = std::max<std::size_t>(1, block_rows / line);
  for (std::size_t lo = o.y0; lo < o.y1; lo += ych) {
    NodeBox c = o;
    c.y0 = lo;
    c.y1 = std::min(o.y1, lo + ych);
    out.push_back(c);
  }
  return out;
}

/// The partition a solve runs on, plus its ghost and allreduce
/// plumbing.  The solvers combine per-rank partial dot products in
/// rank order on the calling thread (deterministic under every
/// backend, and exactly the full-range sum when P = 1, which is what
/// pins the P = 1 runs bitwise-equal to the shared-memory solvers).
///
/// Every rank's owned rows are flattened into ascending [lo, hi)
/// global-row runs once here -- from the box geometry for the mesh
/// partitions or from GraphPartition's owned runs -- so the O(n)
/// vector phases (setup, classical CG steps, delta recomputes)
/// iterate one shape whatever the partition.  Geometry enters only
/// the per-solve matrix-powers plan (make_basis_plan).
struct PartRun {
  Machine& m;
  const sparse::Csr& A;
  const Partition& part;
  const GraphPartition* gp;  // non-null on sparsity-driven partitions
  std::size_t P;
  std::vector<std::size_t> group;
  std::vector<NodeBox> own;  // box partitions only (empty boxes on graphs)
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> runs;
  std::vector<std::size_t> own_sz;
  std::vector<std::size_t> own_nnz;  // A-words of the owned rows

  PartRun(Machine& mm, const sparse::Csr& a, const Partition& pt)
      : m(mm), A(a), part(pt), gp(pt.graph()), P(pt.ranks()),
        group(pt.group()), own(P), runs(P), own_sz(P), own_nnz(P) {
    if (pt.ranks() != mm.nprocs()) {
      throw std::invalid_argument(
          "dist: partition rank count differs from the machine's P");
    }
    if (pt.nodes() != a.n) {
      throw std::invalid_argument("dist: partition does not cover the matrix");
    }
    for (std::size_t p = 0; p < P; ++p) {
      if (gp != nullptr) {
        runs[p] = gp->owned_runs(p);
        own_sz[p] = gp->owned_count(p);
      } else {
        own[p] = pt.owned(p);
        own_sz[p] = own[p].volume();
        for_each_run_local(pt, own[p], own[p],
                           [&](std::size_t lo, std::size_t hi, std::size_t) {
                             runs[p].emplace_back(lo, hi);
                           });
      }
      std::size_t words = 0;
      for (const auto& [lo, hi] : runs[p]) words += rows_nnz(a, lo, hi);
      own_nnz[p] = words;
    }
  }

  /// fn(lo, hi) over rank @p p's owned row runs, ascending.
  template <class Fn>
  void for_runs(std::size_t p, Fn&& fn) const {
    for (const auto& [lo, hi] : runs[p]) fn(lo, hi);
  }

  /// Ghost exchange of @p vecs partitioned vectors: owners read the
  /// shipped boundary nodes from slow memory once, then every
  /// transfer is a neighbour send charged to both endpoints.  The
  /// received nodes stay in the consumer's fast memory (charged as L2
  /// transit where they are used), so ghosts never inflate W12.
  void exchange(const std::vector<HaloTransfer>& halos, std::size_t vecs) {
    if (halos.empty()) return;
    std::vector<std::size_t> sent(P, 0);
    for (const HaloTransfer& t : halos) sent[t.src] += t.rows * vecs;
    m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
      detail::charge_l3_read(h, sent[p], m.M2());
    });
    for (const HaloTransfer& t : halos) {
      m.send(t.src, t.dst, t.rows * vecs);
    }
  }

  /// Charge a binomial-tree allreduce of @p words among all ranks
  /// (reduce with per-round combines, then broadcast of the result).
  /// Under a data-moving transport @p payload (the combined value,
  /// when it is available at charge time) really travels both trees.
  void allreduce_charge(std::size_t words, const double* payload = nullptr) {
    m.reduce(group, words, payload);
    m.bcast(group, words, payload);
  }
};

// ---- matrix-powers plans and the basis kernel ---------------------------
//
// Every CA-CG basis -- box or graph partition, stored or streaming,
// one RHS or a batch -- is built by one kernel (build_basis) from a
// per-solve plan of BasisChunks.  A chunk is one extent the ghost
// exchange fills, with:
//   * an extent-local CSR over its level-1 rows (rows outside level 1
//     are never advanced, so their local rows stay empty);
//   * the extent-local [lo, hi) runs computable at each level l =
//     1..s, and the A-words one build reads (a_words);
//   * the extent-local runs of the rows it Grams and recovers: the
//     rank's owned rows (stored) or its streaming slice.
// Box partitions read the levels off basis_valid_window's per-axis
// shrink (nodes computable inside the extent, clamped at mesh edges,
// clamped empty instead of inverting); graph partitions off the
// sparsity, where level l keeps the rows whose every column lies in
// level l-1 (owned rows survive to level s because the extent is
// their s-hop closure).  Either way each output sums its row in A's
// stored column order, so at P = 1 (extent = every row, all levels
// full) the iterates stay bitwise-identical to the shared-memory
// solvers, and a batch's columns to single-RHS solves.

struct BasisChunk {
  std::vector<std::size_t> ext;  // sorted global rows of the extent
  std::vector<std::size_t> lrp, lcols;
  std::vector<double> lvals;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> lvl;
  std::vector<std::pair<std::size_t, std::size_t>> target;
  std::size_t tsz = 0;        // rows in target
  std::size_t overlap = 0;    // |extent ∩ owned(p)|: slow-read words
  std::uint64_t a_words = 0;  // A words one basis build reads
};

using BasisPlan = std::vector<std::vector<BasisChunk>>;  // [rank][chunk]

/// A values + cols per build: p-chain levels 1..s, r-chain 1..s-1,
/// each level reading its rows' nonzeros once.  Level rows are
/// level-1 rows, so their local CSR rows are complete.
std::uint64_t level_a_words(const BasisChunk& ck, std::size_t s) {
  std::uint64_t w = 0;
  for (std::size_t l = 1; l <= s; ++l) {
    std::uint64_t nz = 0;
    for (const auto& [lo, hi] : ck.lvl[l - 1]) nz += ck.lrp[hi] - ck.lrp[lo];
    w += (l < s ? 4 : 2) * nz;
  }
  return w;
}

/// Maximal contiguous [lo, hi) runs of a sorted index list.
std::vector<std::pair<std::size_t, std::size_t>> index_runs(
    const std::vector<std::size_t>& v) {
  std::vector<std::pair<std::size_t, std::size_t>> rn;
  for (std::size_t k = 0; k < v.size();) {
    std::size_t e = k + 1;
    while (e < v.size() && v[e] == v[e - 1] + 1) ++e;
    rn.emplace_back(v[k], v[e - 1] + 1);
    k = e;
  }
  return rn;
}

BasisChunk make_graph_chunk(const sparse::Csr& A, const GraphPartition& gp,
                            std::size_t rank,
                            const std::vector<std::size_t>& seed,
                            std::size_t s) {
  BasisChunk ck;
  ck.ext = gp.closure(seed, s);
  const std::size_t len = ck.ext.size();
  ck.tsz = seed.size();

  std::vector<std::size_t> loc(A.n, std::size_t(-1));
  for (std::size_t li = 0; li < len; ++li) loc[ck.ext[li]] = li;

  // Local CSR and the level-1 set in one pass: a row joins level 1
  // iff every column is inside the extent (an empty local row must
  // not count -- membership is tested on the global pattern).
  ck.lrp.assign(len + 1, 0);
  std::vector<std::size_t> cur;
  cur.reserve(len);
  for (std::size_t li = 0; li < len; ++li) {
    const std::size_t i = ck.ext[li];
    bool all_in = true;
    for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
      if (loc[A.col_idx[q]] == std::size_t(-1)) {
        all_in = false;
        break;
      }
    }
    if (all_in) {
      for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
        ck.lcols.push_back(loc[A.col_idx[q]]);
        ck.lvals.push_back(A.values[q]);
      }
      cur.push_back(li);
    }
    ck.lrp[li + 1] = ck.lcols.size();
  }

  ck.lvl.reserve(s);
  std::vector<char> mem(len, 0);
  std::vector<std::size_t> next;
  for (std::size_t l = 1; l <= s; ++l) {
    if (l > 1) {
      // Shrink: level l keeps the rows of level l-1 whose columns
      // all sit in level l-1 (local columns suffice -- the kept rows
      // are level-1 rows, whose local rows are complete).
      std::fill(mem.begin(), mem.end(), 0);
      for (const std::size_t li : cur) mem[li] = 1;
      next.clear();
      for (const std::size_t li : cur) {
        bool ok = true;
        for (std::size_t q = ck.lrp[li]; q < ck.lrp[li + 1]; ++q) {
          if (!mem[ck.lcols[q]]) {
            ok = false;
            break;
          }
        }
        if (ok) next.push_back(li);
      }
      cur.swap(next);
    }
    ck.lvl.push_back(index_runs(cur));
  }
  ck.a_words = level_a_words(ck, s);

  std::vector<std::size_t> tloc(seed.size());
  for (std::size_t k = 0; k < seed.size(); ++k) tloc[k] = loc[seed[k]];
  ck.target = index_runs(tloc);  // seed and ext sorted => tloc ascending

  for (const std::size_t i : ck.ext) {
    if (gp.owner_of(i) == rank) ++ck.overlap;
  }
  return ck;
}

/// The box form of make_graph_chunk: extent box @p ebox, level runs
/// from basis_valid_window, Gram/recovery rows @p tgt, slow reads of
/// the extent's overlap with the rank's owned box @p own.  Walking a
/// box in (z, y, x) order visits ascending global rows, so the local
/// index of a row is its position in ext.
BasisChunk make_box_chunk(const sparse::Csr& A, const Partition& part,
                          const NodeBox& ebox, const NodeBox& tgt,
                          const NodeBox& own, std::size_t s) {
  BasisChunk ck;
  const auto local_runs = [&](const NodeBox& b) {
    std::vector<std::pair<std::size_t, std::size_t>> rn;
    for_each_run_local(part, b, ebox,
                       [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                         rn.emplace_back(lb, lb + (ghi - glo));
                       });
    return rn;
  };
  ck.ext.reserve(ebox.volume());
  for_each_run_local(part, ebox, ebox,
                     [&](std::size_t glo, std::size_t ghi, std::size_t) {
                       for (std::size_t i = glo; i < ghi; ++i) {
                         ck.ext.push_back(i);
                       }
                     });
  const std::size_t len = ck.ext.size();
  const std::size_t rad = part.radius();
  for (std::size_t l = 1; l <= s; ++l) {
    const BlockRange vx =
        basis_valid_window(ebox.x0, ebox.x1, part.nx(), l, rad);
    const BlockRange vy =
        basis_valid_window(ebox.y0, ebox.y1, part.ny(), l, rad);
    const BlockRange vz =
        basis_valid_window(ebox.z0, ebox.z1, part.nz(), l, rad);
    ck.lvl.push_back(local_runs(NodeBox{vx.off, vx.off + vx.sz, vy.off,
                                        vy.off + vy.sz, vz.off,
                                        vz.off + vz.sz}));
  }

  // The local CSR of the level-1 rows: each column's mesh coordinates
  // give its local row, once per plan (not per RHS and level); the
  // columns all lie inside the extent when the partition's radius
  // covers A's stencil.
  const std::size_t nx = part.nx(), plane = nx * part.ny();
  std::vector<char> in1(len, 0);
  std::size_t nnz1 = 0;
  for (const auto& [lo, hi] : ck.lvl[0]) {
    for (std::size_t li = lo; li < hi; ++li) {
      in1[li] = 1;
      nnz1 += A.row_ptr[ck.ext[li] + 1] - A.row_ptr[ck.ext[li]];
    }
  }
  ck.lcols.reserve(nnz1);
  ck.lvals.reserve(nnz1);
  ck.lrp.assign(len + 1, 0);
  for (std::size_t li = 0; li < len; ++li) {
    const std::size_t i = ck.ext[li];
    const std::size_t qend = in1[li] ? A.row_ptr[i + 1] : A.row_ptr[i];
    for (std::size_t q = A.row_ptr[i]; q < qend; ++q) {
      const std::size_t j = A.col_idx[q];
      const std::size_t jz = j / plane, jy = (j - jz * plane) / nx;
      const std::size_t jx = j - jz * plane - jy * nx;
      if (jx < ebox.x0 || jx >= ebox.x1 || jy < ebox.y0 || jy >= ebox.y1 ||
          jz < ebox.z0 || jz >= ebox.z1) {
        throw std::invalid_argument(
            "dist::ca_cg: matrix entries reach beyond the partition's "
            "stencil radius");
      }
      ck.lcols.push_back(((jz - ebox.z0) * ebox.dy() + (jy - ebox.y0)) *
                             ebox.dx() +
                         (jx - ebox.x0));
      ck.lvals.push_back(A.values[q]);
    }
    ck.lrp[li + 1] = ck.lcols.size();
  }
  ck.a_words = level_a_words(ck, s);

  ck.target = local_runs(tgt);
  ck.tsz = tgt.volume();
  ck.overlap = box_overlap(ebox, own);
  return ck;
}

/// Per-rank basis plans for one solve, loop-invariant across outer
/// iterations: one whole-owned-set chunk per rank when stored,
/// ~block_rows-row slices of the owned rows when streaming (adjacent
/// chunks re-read their extent overlap: the <= 2x read amplification).
BasisPlan make_basis_plan(const PartRun& rp, std::size_t s, CaCgMode mode,
                          std::size_t block_rows) {
  const sparse::Csr& A = rp.A;
  const Partition& part = rp.part;
  const std::size_t depth = s * part.radius();
  BasisPlan plan(rp.P);
  for (std::size_t p = 0; p < rp.P; ++p) {
    if (rp.own_sz[p] == 0) continue;
    if (rp.gp != nullptr) {
      const auto& own = rp.gp->owned_rows(p);
      if (mode == CaCgMode::kStored) {
        plan[p].push_back(make_graph_chunk(A, *rp.gp, p, own, s));
        continue;
      }
      for (std::size_t lo = 0; lo < own.size(); lo += block_rows) {
        const std::size_t hi = std::min(own.size(), lo + block_rows);
        const std::vector<std::size_t> slice(own.begin() + lo,
                                             own.begin() + hi);
        plan[p].push_back(make_graph_chunk(A, *rp.gp, p, slice, s));
      }
      continue;
    }
    const NodeBox& o = rp.own[p];
    if (mode == CaCgMode::kStored) {
      plan[p].push_back(
          make_box_chunk(A, part, part.extended(p, depth), o, o, s));
      continue;
    }
    for (const NodeBox& c : stream_chunks(part, o, block_rows)) {
      const NodeBox ebox =
          dilate_box(c, depth, part.nx(), part.ny(), part.nz());
      plan[p].push_back(make_box_chunk(A, part, ebox, c, o, s));
    }
  }
  return plan;
}

/// Basis panels of one chunk for na right-hand sides, stored
/// RHS-fastest: column a of the k-th RHS at extent-local row li is
/// col[a][li * na + k].
struct Panels {
  std::size_t na = 0;
  std::vector<std::vector<double>> col;
};

/// Split @p na panel lanes into blocks of compile-time width -- 16,
/// then 8, 4, 2 and 1 -- and call fn(lanes, k0) on each, lanes a
/// std::integral_constant, so the kernels keep one block's per-lane
/// accumulators in registers.  Lanes are independent RHS, so the
/// blocking never changes an output's arithmetic.
template <class Fn>
void for_lane_blocks(std::size_t na, Fn&& fn) {
  std::size_t k0 = 0;
  for (; k0 + 16 <= na; k0 += 16) {
    fn(std::integral_constant<std::size_t, 16>{}, k0);
  }
  const auto tail = [&](auto lanes) {
    if (k0 + decltype(lanes)::value <= na) {
      fn(lanes, k0);
      k0 += decltype(lanes)::value;
    }
  };
  tail(std::integral_constant<std::size_t, 8>{});
  tail(std::integral_constant<std::size_t, 4>{});
  tail(std::integral_constant<std::size_t, 2>{});
  tail(std::integral_constant<std::size_t, 1>{});
}

/// Register type of an L-lane block: SSE2-width pairs of doubles
/// (the GCC/Clang vector extension) for even L, a plain double for
/// L = 1.  Its +, -, * and / are element-wise, separately rounded
/// IEEE operations with a scalar operand splatted -- lane by lane the
/// scalar arithmetic, so vectorizing changes no bits.
typedef double f64x2 __attribute__((vector_size(16)));
template <std::size_t L>
using LaneVec = std::conditional_t<L % 2 == 0, f64x2, double>;
template <std::size_t L>
constexpr std::size_t kLaneWidth = L % 2 == 0 ? 2 : 1;  // doubles per LaneVec

template <class V>
V load_lanes(const double* p) {
  V v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
void store_lanes(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// One level of the shifted recurrence over @p ck's level runs, all
/// na RHS per row: to = (A from - theta from) / sigma, each output
/// summed in A's stored column order from 0 with a separate multiply
/// and add -- the single-RHS arithmetic, lane by lane.
void advance_rows(const BasisChunk& ck, std::size_t level, std::size_t na,
                  const double* fc, double* tc, double theta, double sigma) {
  if (na == 1) {  // one RHS: a plain row loop is faster
    for (const auto& [llo, lhi] : ck.lvl[level - 1]) {
      for (std::size_t li = llo; li < lhi; ++li) {
        double t = 0;
        for (std::size_t q = ck.lrp[li]; q < ck.lrp[li + 1]; ++q) {
          t += ck.lvals[q] * fc[ck.lcols[q]];
        }
        tc[li] = (t - theta * fc[li]) / sigma;
      }
    }
    return;
  }
  for (const auto& [llo, lhi] : ck.lvl[level - 1]) {
    for_lane_blocks(na, [&](auto lanes, std::size_t k0) {
      constexpr std::size_t L = decltype(lanes)::value;
      using V = LaneVec<L>;
      constexpr std::size_t w = kLaneWidth<L>, nv = L / w;
      for (std::size_t li = llo; li < lhi; ++li) {
        std::array<V, nv> t{};
        for (std::size_t q = ck.lrp[li]; q < ck.lrp[li + 1]; ++q) {
          const double v = ck.lvals[q];
          const double* f = fc + ck.lcols[q] * na + k0;
          for (std::size_t j = 0; j < nv; ++j) {
            t[j] += v * load_lanes<V>(f + j * w);
          }
        }
        const double* self = fc + li * na + k0;
        double* out = tc + li * na + k0;
        for (std::size_t j = 0; j < nv; ++j) {
          store_lanes(out + j * w,
                      (t[j] - theta * load_lanes<V>(self + j * w)) / sigma);
        }
      }
    });
  }
}

/// The matrix-powers kernel: fill @p W with the 2s+1 basis columns of
/// every RHS in @p pv / @p rv (their p and r vectors) over chunk
/// @p ck -- heads gathered over the extent, then s p-chain and s-1
/// r-chain levels, one pass over each row serving every RHS.  Returns
/// the A-words the caller charges as slow reads (once per build,
/// whatever na).  The buffers are recycled across builds (never read
/// before being written: heads cover the whole extent, and Gram and
/// recovery only read target rows, valid in every column).
std::uint64_t build_basis(const BasisChunk& ck, const kd::BasisCoeffs& bc,
                          std::size_t s, std::span<const double* const> pv,
                          std::span<const double* const> rv, Panels& W) {
  const std::size_t mm = 2 * s + 1;
  const std::size_t na = pv.size();
  const std::size_t len = ck.ext.size();
  W.na = na;
  W.col.resize(mm);
  for (auto& c : W.col) c.resize(len * na);
  for (std::size_t li = 0; li < len; ++li) {
    const std::size_t i = ck.ext[li];
    for (std::size_t k = 0; k < na; ++k) {
      W.col[0][li * na + k] = pv[k][i];
      W.col[s + 1][li * na + k] = rv[k][i];
    }
  }
  const auto advance = [&](std::size_t from, std::size_t to,
                           std::size_t level, double theta) {
    advance_rows(ck, level, na, W.col[from].data(), W.col[to].data(), theta,
                 bc.sigma);
  };
  for (std::size_t j = 0; j < s; ++j) {
    advance(j, j + 1, j + 1, bc.theta[j]);
  }
  for (std::size_t j = 0; j + 1 < s; ++j) {
    advance(s + 1 + j, s + 1 + j + 1, j + 1, bc.theta[j]);
  }
  return ck.a_words;
}

/// Add each RHS's upper Gram partial over the chunk's target rows to
/// @p g (entry (a, c) of the k-th RHS at g[(a * mm + c) * na + k]).
/// Every entry is one chain in ascending row order -- gram_upper_acc's
/// contract -- so the bits equal a per-RHS gram_upper_acc over the
/// same runs; with one RHS the panel is contiguous and the kernel
/// reads it directly.
void gram_acc(const BasisChunk& ck, std::size_t mm, const Panels& W,
              double* g) {
  const std::size_t na = W.na;
  if (na == 1) {
    std::vector<const double*> wp(mm);
    for (std::size_t a = 0; a < mm; ++a) wp[a] = W.col[a].data();
    for (const auto& [llo, lhi] : ck.target) {
      linalg::active_kernels().gram_upper_acc(g, mm, wp.data(), llo, lhi);
    }
    return;
  }
  // Slabs of rows small enough that all mm columns stay in L1 while
  // every entry's lanes sweep them.
  constexpr std::size_t kSlab = 16;
  for (const auto& [llo, lhi] : ck.target) {
    for (std::size_t r0 = llo; r0 < lhi; r0 += kSlab) {
      const std::size_t r1 = std::min(lhi, r0 + kSlab);
      for (std::size_t a = 0; a < mm; ++a) {
        for (std::size_t c = a; c < mm; ++c) {
          const double* wa = W.col[a].data();
          const double* wc = W.col[c].data();
          double* ge = g + (a * mm + c) * na;
          for_lane_blocks(na, [&](auto lanes, std::size_t k0) {
            constexpr std::size_t L = decltype(lanes)::value;
            using V = LaneVec<L>;
            constexpr std::size_t w = kLaneWidth<L>, nv = L / w;
            std::array<V, nv> acc{};
            for (std::size_t j = 0; j < nv; ++j) {
              acc[j] = load_lanes<V>(ge + k0 + j * w);
            }
            for (std::size_t li = r0; li < r1; ++li) {
              const double* x = wa + li * na + k0;
              const double* y = wc + li * na + k0;
              for (std::size_t j = 0; j < nv; ++j) {
                acc[j] += load_lanes<V>(x + j * w) * load_lanes<V>(y + j * w);
              }
            }
            for (std::size_t j = 0; j < nv; ++j) {
              store_lanes(ge + k0 + j * w, acc[j]);
            }
          });
        }
      }
    }
  }
}

/// One RHS's recovery: [pout, rout, x] = W_k [ph, rh, xh] + [0, 0, x]
/// over a chunk's target rows, W_k its panel slot k.
struct RecoverRhs {
  std::size_t k;
  const double* ph;
  const double* rh;
  const double* xh;
  double* x;
  double* pout;
  double* rout;
};

void recover(const BasisChunk& ck, std::size_t mm, const Panels& W,
             std::span<const RecoverRhs> rhs) {
  const std::size_t na = W.na, nt = rhs.size();
  // Lane-contiguous coefficients: ph, rh, xh (v = 0, 1, 2) of basis
  // column a for the t-th RHS at coef[(3 * a + v) * nt + t].
  std::vector<double> coef(3 * mm * nt);
  for (std::size_t t = 0; t < nt; ++t) {
    for (std::size_t a = 0; a < mm; ++a) {
      coef[(3 * a) * nt + t] = rhs[t].ph[a];
      coef[(3 * a + 1) * nt + t] = rhs[t].rh[a];
      coef[(3 * a + 2) * nt + t] = rhs[t].xh[a];
    }
  }
  for_lane_blocks(nt, [&](auto lanes, std::size_t t0) {
    constexpr std::size_t L = decltype(lanes)::value;
    using V = LaneVec<L>;
    constexpr std::size_t lw = kLaneWidth<L>, nv = L / lw;
    std::array<std::size_t, L> slot{};
    std::array<double*, L> xo{}, po{}, ro{};
    for (std::size_t k = 0; k < L; ++k) {
      slot[k] = rhs[t0 + k].k;
      xo[k] = rhs[t0 + k].x;
      po[k] = rhs[t0 + k].pout;
      ro[k] = rhs[t0 + k].rout;
    }
    for (const auto& [llo, lhi] : ck.target) {
      for (std::size_t li = llo; li < lhi; ++li) {
        const std::size_t i = ck.ext[li];
        // Per lane: np = 0, nr = 0, nx = x[i], then + W(a) coef(a)
        // for a ascending; the row's panel values are gathered from
        // the lanes' slots.
        std::array<double, L> buf{};
        for (std::size_t k = 0; k < L; ++k) buf[k] = xo[k][i];
        std::array<V, nv> np{}, nr{}, nx{};
        for (std::size_t j = 0; j < nv; ++j) {
          nx[j] = load_lanes<V>(buf.data() + j * lw);
        }
        for (std::size_t a = 0; a < mm; ++a) {
          const double* wa = W.col[a].data() + li * na;
          for (std::size_t k = 0; k < L; ++k) buf[k] = wa[slot[k]];
          const double* cp = coef.data() + (3 * a) * nt + t0;
          for (std::size_t j = 0; j < nv; ++j) {
            const V wv = load_lanes<V>(buf.data() + j * lw);
            np[j] += wv * load_lanes<V>(cp + j * lw);
            nr[j] += wv * load_lanes<V>(cp + nt + j * lw);
            nx[j] += wv * load_lanes<V>(cp + 2 * nt + j * lw);
          }
        }
        std::array<double, L> pb{}, rb{};
        for (std::size_t j = 0; j < nv; ++j) {
          store_lanes(pb.data() + j * lw, np[j]);
          store_lanes(rb.data() + j * lw, nr[j]);
          store_lanes(buf.data() + j * lw, nx[j]);
        }
        for (std::size_t k = 0; k < L; ++k) {
          po[k][i] = pb[k];
          ro[k][i] = rb[k];
          xo[k][i] = buf[k];
        }
      }
    }
  });
}

/// The basis + Gram phase of one outer iteration for the na RHS whose
/// p and r vectors are @p pv / @p rv.  Stored: each rank materializes
/// all 2s+1 columns of its owned rows (redundantly extending into the
/// ghost region), writes each finished owned column to slow memory
/// once and keeps the panels in @p V for recovery.  Streaming (pass
/// 1): the basis is built chunkwise in fast buffers and discarded,
/// writing nothing to slow memory.  Per-RHS vector words carry the na
/// multiplier; the A stream is charged once per build.  @p g[rank]
/// receives the packed Gram partials (gram_acc's layout).
void basis_gram_phase(PartRun& rp, const BasisPlan& plan, CaCgMode mode,
                      const kd::BasisCoeffs& bc, std::size_t s,
                      const std::vector<std::size_t>& recv_s,
                      std::span<const double* const> pv,
                      std::span<const double* const> rv,
                      std::vector<Panels>& V,
                      std::vector<std::vector<double>>& g) {
  Machine& m = rp.m;
  const std::size_t mm = 2 * s + 1;
  const std::uint64_t na = pv.size();
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    g[rank].assign(mm * mm * na, 0.0);
    if (rp.own_sz[rank] == 0) {
      V[rank].col.clear();
      return;
    }
    const std::size_t osz = rp.own_sz[rank];
    detail::charge_l2_transit(h, 2 * na * recv_s[rank], m.M2(), 0);
    if (mode == CaCgMode::kStored) {
      Panels& W = V[rank];
      const BasisChunk& ck = plan[rank][0];
      const std::uint64_t a_words = build_basis(ck, bc, s, pv, rv, W);
      detail::charge_l3_read(h, na * 2 * osz, m.M2());
      detail::charge_l3_write(h, na * 2 * osz, m.M2());  // basis heads
      detail::charge_l3_read(h, a_words, m.M2());        // A, shared
      // Every non-head column of the owned rows hits slow memory
      // once -- the Theta(n) stored-basis write stream.
      detail::charge_l3_write(h, na * (2 * s - 1) * osz, m.M2());
      gram_acc(ck, mm, W, g[rank].data());
      detail::charge_l3_read(h, na * mm * osz, m.M2());  // basis re-read
      return;
    }
    Panels& W = V[rank];
    for (const BasisChunk& ck : plan[rank]) {
      const std::uint64_t a_words = build_basis(ck, bc, s, pv, rv, W);
      // Slow-memory reads: the extent's overlap with the rank's owned
      // rows (ghost rows arrived by network).
      detail::charge_l3_read(h, na * 2 * ck.overlap, m.M2());
      detail::charge_l3_read(h, a_words, m.M2());  // A, shared
      gram_acc(ck, mm, W, g[rank].data());
    }
  });
}

/// The recovery phase for the RHS in @p rhs.  Stored: read back the
/// panels @p V of the basis phase (rhs[].k index their slots).
/// Streaming (pass 2): rebuild the basis chunkwise from @p pv / @p rv
/// -- rhs[k] is the k-th of them -- and fuse the recovery (the <= 2x
/// flop doubling the paper trades for the Theta(s) write reduction);
/// only x, p, r are written.
void recover_phase(PartRun& rp, const BasisPlan& plan, CaCgMode mode,
                   const kd::BasisCoeffs& bc, std::size_t s,
                   std::span<const double* const> pv,
                   std::span<const double* const> rv,
                   std::vector<Panels>& V, std::span<const RecoverRhs> rhs) {
  Machine& m = rp.m;
  const std::size_t mm = 2 * s + 1;
  const std::uint64_t nr = rhs.size();
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    if (rp.own_sz[rank] == 0) return;
    if (mode == CaCgMode::kStored) {
      const std::size_t osz = rp.own_sz[rank];
      recover(plan[rank][0], mm, V[rank], rhs);
      detail::charge_l3_read(h, nr * (mm * osz + osz), m.M2());
      detail::charge_l3_write(h, nr * 3 * osz, m.M2());
      return;
    }
    Panels& W = V[rank];
    for (const BasisChunk& ck : plan[rank]) {
      const std::uint64_t a_words = build_basis(ck, bc, s, pv, rv, W);
      detail::charge_l3_read(h, nr * 2 * ck.overlap, m.M2());
      detail::charge_l3_read(h, a_words, m.M2());  // A, shared
      recover(ck, mm, W, rhs);
      detail::charge_l3_read(h, nr * ck.tsz, m.M2());       // x
      detail::charge_l3_write(h, nr * 3 * ck.tsz, m.M2());  // x, p, r
    }
  });
}

/// Uncharged diagnostic shared with the shared-memory solvers: the
/// true residual of each RHS's final iterate, computed globally.  An
/// RHS the stopping test did not mark converged still counts as
/// converged when that residual is finite and at most
/// tol * ||b|| * @p slack.
void final_residuals(const sparse::Csr& A, std::span<const double> B,
                     std::span<const double> X, double tol, double slack,
                     KrylovBatchResult& out) {
  const std::size_t n = A.n;
  std::vector<double> ax(n);
  for (std::size_t j = 0; j < out.rhs.size(); ++j) {
    const auto bj = B.subspan(j * n, n);
    sparse::spmv(A, X.subspan(j * n, n), ax);
    double rn = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = bj[i] - ax[i];
      rn += d * d;
    }
    KrylovResult& res = out.rhs[j];
    res.residual_norm = std::sqrt(rn);
    if (!res.converged) {
      res.converged = std::isfinite(res.residual_norm) &&
                      res.residual_norm <= tol * sparse::norm2(bj) * slack;
    }
  }
}

// ---- the batched engine --------------------------------------------------
//
// Every distributed solve runs here: dist::cg and dist::ca_cg are
// batches of one.  A batch keeps nrhs fully independent per-RHS
// recurrences: every floating-point operation an RHS sees is the one
// it would see solved alone, in the same order, so iterates are
// bitwise-identical for any batch composition and finished, broken-
// down or non-finite RHS drop out without perturbing the others.  The
// CA-CG basis traversal is really shared: build_basis makes one pass
// over each row of a rank's extent-local A for all active RHS, whose
// panels are stored RHS-fastest (each output still summed in A's
// stored column order), so A is read once per basis level per batch,
// as charged.  Each halo exchange is one event shipping all active
// panels, and each allreduce is one event combining all active
// scalars/Grams.  Per-RHS vector words carry an active-count
// multiplier, so the per-solve W12 and halo words stay flat in b
// while the A stream and messages amortize.  (The classical-CG steps,
// cg_step_batch and residual_setup_batch, still run one SpMV per RHS
// and share A only in the charging.)

void check_batch_panels(std::size_t n, std::size_t nrhs, std::size_t bsz,
                        std::size_t xsz, const char* who) {
  if (bsz < n * nrhs || xsz < n * nrhs) {
    throw std::invalid_argument(std::string(who) +
                                ": panel spans must hold n*nrhs words");
  }
}

struct BatchSetupResult {
  std::vector<double> delta;
  std::vector<double> bb;

  /// Whether RHS @p j may take a step.  An Inf or NaN in its b or x
  /// makes delta or <b, b> non-finite, and then the stopping test
  /// delta <= tol^2 <b, b> means nothing (Inf <= Inf passes, NaN
  /// never does), so the solvers retire it unconverged before its
  /// first step.
  bool finite(std::size_t j) const {
    return std::isfinite(delta[j]) && std::isfinite(bb[j]);
  }
};

/// Solve setup for every RHS: ghost exchange of the x panels, per-rank
/// r = b - A x and p = r (charged at the shared-memory rates), delta =
/// <r, r> via allreduce, and <b, b> for the stopping threshold (rank-
/// ordered but uncharged reads, matching the shared-memory solvers).
/// One exchange event ships all nrhs x panels, one A traversal serves
/// every initial residual, and the nrhs deltas travel in one allreduce
/// event.
BatchSetupResult residual_setup_batch(
    PartRun& rp, const std::vector<HaloTransfer>& halo1,
    const std::vector<std::size_t>& recv1, std::span<const double> B,
    std::span<double> X, std::vector<std::vector<double>>& r,
    std::vector<std::vector<double>>& p, std::vector<std::vector<double>>& w,
    std::size_t nrhs) {
  Machine& m = rp.m;
  const sparse::Csr& A = rp.A;
  const std::size_t n = A.n;

  BatchSetupResult out;
  out.delta.assign(nrhs, 0.0);
  out.bb.assign(nrhs, 0.0);
  std::vector<std::vector<double>> partj(nrhs,
                                         std::vector<double>(rp.P, 0.0));

  rp.exchange(halo1, nrhs);
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto xj = X.subspan(j * n, n);
      const auto bj = B.subspan(j * n, n);
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          w[j][i] = kd::row_dot(A, i, xj.data(), 0);
        }
      });
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          r[j][i] = bj[i] - w[j][i];
          p[j][i] = r[j][i];
        }
      });
    }
    detail::charge_l2_transit(h, nrhs * recv1[rank], m.M2(), 0);
    detail::charge_l3_read(
        h, rp.own_nnz[rank] + nrhs * 3 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nrhs * 2 * rp.own_sz[rank], m.M2());
  });

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t j = 0; j < nrhs; ++j) {
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          sum += r[j][i] * r[j][i];
        }
      });
      partj[j][rank] = sum;
    }
    detail::charge_l3_read(h, nrhs * 2 * rp.own_sz[rank], m.M2());
  });
  for (std::size_t j = 0; j < nrhs; ++j) {
    double sum = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) sum += partj[j][q];
    out.delta[j] = sum;
  }
  rp.allreduce_charge(nrhs, out.delta.data());

  for (std::size_t j = 0; j < nrhs; ++j) {
    const auto bj = B.subspan(j * n, n);
    double bb = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) {
      double sum = 0.0;
      rp.for_runs(q, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += bj[i] * bj[i];
      });
      bb += sum;
    }
    out.bb[j] = bb;
  }
  rp.allreduce_charge(nrhs, out.bb.data());
  return out;
}

/// One classical CG step over the RHS set @p act, charged per RHS at
/// the classical per-step rates (reads A + O(n)/P, writes w, x, r, p:
/// 4n/P per rank) with one exchange event, one A traversal, and one
/// allreduce event per scalar round.  With @p check_den (the CA-CG
/// restart fallback; classical CG divides unconditionally, like
/// krylov::cg) a non-positive or non-finite den retires that RHS
/// after phase 1: marked in @p broke, no phase 2/3 work or charges,
/// no delta update.
void cg_step_batch(PartRun& rp, const std::vector<HaloTransfer>& halo1,
                   const std::vector<std::size_t>& recv1,
                   std::span<double> X, std::vector<std::vector<double>>& r,
                   std::vector<std::vector<double>>& p,
                   std::vector<std::vector<double>>& w,
                   std::vector<double>& delta,
                   const std::vector<std::size_t>& act, bool check_den,
                   std::vector<char>* broke) {
  Machine& m = rp.m;
  const sparse::Csr& A = rp.A;
  const std::size_t n = A.n;
  const std::uint64_t na = act.size();
  std::vector<std::vector<double>> partj(act.size(),
                                         std::vector<double>(rp.P, 0.0));

  rp.exchange(halo1, na);  // all active p panels travel together
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t idx = 0; idx < act.size(); ++idx) {
      const std::size_t j = act[idx];
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          w[j][i] = kd::row_dot(A, i, p[j].data(), 0);
        }
      });
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += p[j][i] * w[j][i];
      });
      partj[idx][rank] = sum;
    }
    detail::charge_l2_transit(h, na * recv1[rank], m.M2(), 0);
    detail::charge_l3_read(
        h, rp.own_nnz[rank] + na * 3 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, na * rp.own_sz[rank], m.M2());  // w
  });
  rp.allreduce_charge(na);

  std::vector<std::size_t> live;
  std::vector<double> alpha(act.size(), 0.0);
  for (std::size_t idx = 0; idx < act.size(); ++idx) {
    const std::size_t j = act[idx];
    double den = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) den += partj[idx][q];
    if (check_den && (den <= 0 || !std::isfinite(den))) {
      if (broke != nullptr) (*broke)[j] = 1;
      continue;
    }
    alpha[idx] = delta[j] / den;
    live.push_back(idx);
  }
  if (live.empty()) return;
  const std::uint64_t nl = live.size();

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (const std::size_t idx : live) {
      const std::size_t j = act[idx];
      const auto xj = X.subspan(j * n, n);
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) xj[i] += alpha[idx] * p[j][i];
        for (std::size_t i = lo; i < hi; ++i) r[j][i] -= alpha[idx] * w[j][i];
        for (std::size_t i = lo; i < hi; ++i) sum += r[j][i] * r[j][i];
      });
      partj[idx][rank] = sum;
    }
    detail::charge_l3_read(h, nl * 6 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nl * 2 * rp.own_sz[rank], m.M2());  // x, r
  });
  rp.allreduce_charge(nl);
  std::vector<double> beta(act.size(), 0.0);
  for (const std::size_t idx : live) {
    const std::size_t j = act[idx];
    double delta_new = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) delta_new += partj[idx][q];
    beta[idx] = delta_new / delta[j];
    delta[j] = delta_new;
  }

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (const std::size_t idx : live) {
      const std::size_t j = act[idx];
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          p[j][i] = r[j][i] + beta[idx] * p[j][i];
        }
      });
    }
    detail::charge_l3_read(h, nl * 2 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nl * rp.own_sz[rank], m.M2());  // p
  });
}

}  // namespace

KrylovBatchResult cg_batch(Machine& m, const Partition& part,
                           const sparse::Csr& A, std::span<const double> B,
                           std::span<double> X, std::size_t nrhs,
                           std::size_t max_iters, double tol) {
  const std::size_t n = A.n;
  check_batch_panels(n, nrhs, B.size(), X.size(), "dist::cg_batch");
  PartRun rp(m, A, part);
  const auto halo1 = part.halo(part.radius());
  const auto recv1 = recv_rows(halo1, rp.P);

  KrylovBatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  std::vector<std::vector<double>> r(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> p(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> w(nrhs, std::vector<double>(n));

  const BatchSetupResult init =
      residual_setup_batch(rp, halo1, recv1, B, X, r, p, w, nrhs);
  std::vector<double> delta = init.delta, stop(nrhs);
  std::vector<char> done(nrhs, 0);
  for (std::size_t j = 0; j < nrhs; ++j) {
    stop[j] = tol * tol * init.bb[j];
    done[j] = !init.finite(j);
  }

  for (std::size_t it = 0; it < max_iters; ++it) {
    std::vector<std::size_t> act;
    for (std::size_t j = 0; j < nrhs; ++j) {
      if (done[j]) continue;
      if (delta[j] <= stop[j]) {
        out.rhs[j].converged = true;
        done[j] = 1;
      } else {
        act.push_back(j);
      }
    }
    if (act.empty()) break;
    cg_step_batch(rp, halo1, recv1, X, r, p, w, delta, act,
                  /*check_den=*/false, nullptr);
    for (const std::size_t j : act) ++out.rhs[j].iterations;
  }

  final_residuals(A, B, X, tol, 1.0, out);
  return out;
}

KrylovBatchResult ca_cg_batch(Machine& m, const Partition& part,
                              const sparse::Csr& A,
                              std::span<const double> B, std::span<double> X,
                              std::size_t nrhs, const CaCgOptions& opt) {
  const std::size_t n = A.n;
  const std::size_t s = opt.s;
  if (s == 0) throw std::invalid_argument("dist::ca_cg_batch: s >= 1");
  check_batch_panels(n, nrhs, B.size(), X.size(), "dist::ca_cg_batch");
  const std::size_t mm = 2 * s + 1;
  const kd::BasisCoeffs bc =
      kd::make_basis(A, s, opt.basis == CaCgBasis::kNewton);

  PartRun rp(m, A, part);
  const std::size_t P = rp.P;
  const std::size_t ext = s * part.radius();
  std::size_t block_rows = opt.block_rows;
  if (block_rows == 0) {
    block_rows = std::max<std::size_t>(4 * s * part.radius(), 256);
  }
  const auto halo1 = part.halo(part.radius());
  const auto recv1 = recv_rows(halo1, P);
  const auto halo_s = part.halo(ext);
  const auto recv_s = recv_rows(halo_s, P);

  KrylovBatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  std::vector<std::vector<double>> r(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> p(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> w(nrhs, std::vector<double>(n));

  const BatchSetupResult init =
      residual_setup_batch(rp, halo1, recv1, B, X, r, p, w, nrhs);
  std::vector<double> delta = init.delta, stop(nrhs), delta_enter(nrhs, 0.0);
  std::vector<char> finished(nrhs, 0);
  for (std::size_t j = 0; j < nrhs; ++j) {
    stop[j] = opt.tol * opt.tol * init.bb[j];
    finished[j] = !init.finite(j);
  }

  std::vector<std::size_t> restarts(nrhs, 0);
  constexpr std::size_t kMaxRestarts = 25;

  // Rollback state of an outer iteration: streaming recovers into pn,
  // rn and swaps, so the swapped-out buffers hold the entry p, r and
  // only the stored mode (which recovers in place) copies them.
  const bool stored = opt.mode == CaCgMode::kStored;
  std::vector<std::vector<double>> x_snap(nrhs), p_snap(nrhs), r_snap(nrhs);
  std::vector<std::vector<double>> pn(nrhs), rn(nrhs);

  // Per-rank scratch: each rank's basis panels (all active RHS
  // interleaved, kept from the basis phase to the stored recovery and
  // recycled across chunks when streaming) and packed Gram partials.
  std::vector<Panels> V(P);
  std::vector<std::vector<double>> gpart(P);
  std::vector<std::vector<double>> partj(nrhs,
                                         std::vector<double>(P, 0.0));
  // One plan serves every RHS (extents and level sets depend only on
  // the pattern and s).
  const BasisPlan plan = make_basis_plan(rp, s, opt.mode, block_rows);

  for (std::size_t outer = 0; outer < opt.max_outer; ++outer) {
    std::vector<std::size_t> act;
    for (std::size_t j = 0; j < nrhs; ++j) {
      if (finished[j]) continue;
      if (delta[j] <= stop[j]) {
        out.rhs[j].converged = true;
        finished[j] = 1;
      } else {
        act.push_back(j);
      }
    }
    if (act.empty()) break;
    const std::uint64_t na = act.size();

    std::vector<const double*> pv(na), rv(na);
    for (std::size_t k = 0; k < na; ++k) {
      const std::size_t j = act[k];
      delta_enter[j] = delta[j];
      const auto xj = X.subspan(j * n, n);
      x_snap[j].assign(xj.begin(), xj.end());
      if (stored) {
        p_snap[j] = p[j];
        r_snap[j] = r[j];
      }
      pv[k] = p[j].data();
      rv[k] = r[j].data();
    }

    // One ghost exchange event per outer iteration ships the p and r
    // panels of every active RHS together; one basis pass serves them.
    rp.exchange(halo_s, 2 * na);
    basis_gram_phase(rp, plan, opt.mode, bc, s, recv_s, pv, rv, V, gpart);

    // Gram combine per RHS, one allreduce event for all active
    // triangles.
    std::vector<kd::Small> G(nrhs, kd::Small(mm));
    for (std::size_t k = 0; k < na; ++k) {
      kd::Small& Gj = G[act[k]];
      for (std::size_t q = 0; q < P; ++q) {
        for (std::size_t a = 0; a < mm; ++a) {
          for (std::size_t c = a; c < mm; ++c) {
            Gj(a, c) += gpart[q][(a * mm + c) * na + k];
          }
        }
      }
      linalg::gram_mirror(Gj.a.data(), mm);
    }
    rp.allreduce_charge(na * (mm * (mm + 1) / 2));

    std::vector<std::vector<double>> xh(nrhs), ph(nrhs), rh(nrhs);
    std::vector<std::size_t> act2, slot2;  // survivors, their basis slots
    for (std::size_t k = 0; k < na; ++k) {
      const std::size_t j = act[k];
      xh[j].assign(mm, 0.0);
      ph[j].assign(mm, 0.0);
      rh[j].assign(mm, 0.0);
      ph[j][0] = 1.0;
      rh[j][s + 1] = 1.0;
      krylov::Traffic fast;  // inner-step flops; no slow channel
      const auto inner =
          kd::inner_steps(s, bc, G[j], xh[j], ph[j], rh[j], delta[j], fast);
      if (inner.breakdown) {
        finished[j] = 1;
        continue;
      }
      out.rhs[j].iterations += s;
      act2.push_back(j);
      slot2.push_back(k);
    }
    if (act2.empty()) continue;
    const std::uint64_t na2 = act2.size();

    // Stored recovery reads the survivors' slots of the basis panels
    // into p, r; streaming rebuilds for the survivors only (slot = its
    // index among them) and recovers into pn, rn.
    std::vector<RecoverRhs> rec;
    std::vector<const double*> pv2, rv2;
    for (std::size_t k = 0; k < na2; ++k) {
      const std::size_t j = act2[k];
      if (!stored) {
        pn[j].resize(n);
        rn[j].resize(n);
        pv2.push_back(p[j].data());
        rv2.push_back(r[j].data());
      }
      rec.push_back(RecoverRhs{stored ? slot2[k] : k, ph[j].data(),
                               rh[j].data(), xh[j].data(),
                               X.subspan(j * n, n).data(),
                               stored ? p[j].data() : pn[j].data(),
                               stored ? r[j].data() : rn[j].data()});
    }
    recover_phase(rp, plan, opt.mode, bc, s, pv2, rv2, V, rec);
    if (!stored) {
      for (const std::size_t j : act2) {
        p[j].swap(pn[j]);
        r[j].swap(rn[j]);
      }
    }

    m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
      for (const std::size_t j : act2) {
        double sum = 0.0;
        rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) sum += r[j][i] * r[j][i];
        });
        partj[j][rank] = sum;
      }
      detail::charge_l3_read(h, na2 * 2 * rp.own_sz[rank], m.M2());
    });
    rp.allreduce_charge(na2);

    std::vector<std::size_t> restart_set;
    for (const std::size_t j : act2) {
      double delta_true = 0.0;
      for (std::size_t q = 0; q < P; ++q) delta_true += partj[j][q];
      if (!std::isfinite(delta_true) ||
          delta_true > 16.0 * delta_enter[j]) {
        if (++restarts[j] > kMaxRestarts) {
          finished[j] = 1;
          continue;
        }
        out.rhs[j].iterations -= s;
        const auto xj = X.subspan(j * n, n);
        std::copy(x_snap[j].begin(), x_snap[j].end(), xj.begin());
        if (stored) {
          p[j] = p_snap[j];
          r[j] = r_snap[j];
        } else {
          p[j].swap(pn[j]);
          r[j].swap(rn[j]);
        }
        delta[j] = delta_enter[j];
        restart_set.push_back(j);
      } else {
        delta[j] = delta_true;
      }
    }

    // Batched classical-CG fallback for the rolled-back RHS: each of
    // the s steps is one shared traversal/exchange over the RHS still
    // falling back; a den breakdown retires its RHS from the fallback
    // only (it rejoins the next outer iteration).
    if (!restart_set.empty()) {
      std::vector<char> fb_broke(nrhs, 0);
      for (std::size_t step = 0; step < s; ++step) {
        std::vector<std::size_t> R;
        for (const std::size_t j : restart_set) {
          if (!fb_broke[j] && delta[j] > stop[j]) R.push_back(j);
        }
        if (R.empty()) break;
        cg_step_batch(rp, halo1, recv1, X, r, p, w, delta, R,
                      /*check_den=*/true, &fb_broke);
        for (const std::size_t j : R) {
          if (!fb_broke[j]) ++out.rhs[j].iterations;
        }
      }
    }
  }

  final_residuals(A, B, X, opt.tol, 10.0, out);
  return out;
}

KrylovBatchResult cg_batch(Machine& m, const sparse::Csr& A,
                           std::span<const double> B, std::span<double> X,
                           std::size_t nrhs, std::size_t max_iters,
                           double tol) {
  const auto part = make_partition(m.nprocs(), A);
  return cg_batch(m, *part, A, B, X, nrhs, max_iters, tol);
}

KrylovBatchResult ca_cg_batch(Machine& m, const sparse::Csr& A,
                              std::span<const double> B, std::span<double> X,
                              std::size_t nrhs,
                              const CaCgOptions& opt) {
  const auto part = make_partition(m.nprocs(), A);
  return ca_cg_batch(m, *part, A, B, X, nrhs, opt);
}

KrylovResult cg(Machine& m, const Partition& part, const sparse::Csr& A,
                std::span<const double> b, std::span<double> x,
                std::size_t max_iters, double tol) {
  if (b.size() != A.n || x.size() != A.n) {
    throw std::invalid_argument("dist::cg: size mismatch");
  }
  return cg_batch(m, part, A, b, x, 1, max_iters, tol).rhs[0];
}

KrylovResult ca_cg(Machine& m, const Partition& part, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const CaCgOptions& opt) {
  if (opt.s == 0) throw std::invalid_argument("dist::ca_cg: s >= 1");
  if (b.size() != A.n || x.size() != A.n) {
    throw std::invalid_argument("dist::ca_cg: size mismatch");
  }
  return ca_cg_batch(m, part, A, b, x, 1, opt).rhs[0];
}

KrylovResult cg(Machine& m, const sparse::Csr& A, std::span<const double> b,
                std::span<double> x, std::size_t max_iters, double tol) {
  const auto part = make_partition(m.nprocs(), A);
  return cg(m, *part, A, b, x, max_iters, tol);
}

KrylovResult ca_cg(Machine& m, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const CaCgOptions& opt) {
  const auto part = make_partition(m.nprocs(), A);
  return ca_cg(m, *part, A, b, x, opt);
}

}  // namespace wa::dist
