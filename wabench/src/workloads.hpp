#pragma once
// The benchmark's workloads.  Each closed-loop operation is a round of
// library calls on one input from a small seeded pool; every input is
// also run once under SerialSimBackend + SimTransport, the reference
// each timed operation's counters and output bits must equal.
//
//   dense         summa_l3_ool2, mm_25d (2.5DMML3ooL2, c = 2) and
//                 right- plus left-looking LU on one seeded SPD matrix
//                 at P = 16.  Work sits in the linalg kernels, memsim
//                 charging and large shm broadcasts; no sparse code.
//   cacg_single   classical CG and CA-CG (s = 4, stored and streaming)
//                 on a 2-D stencil (box partition) and a small-world
//                 graph (graph partition), one right-hand side per
//                 solve: many small phases and scalar allreduces.
//   cacg_batch16  the same six solves through cg_batch / ca_cg_batch
//                 with 16 right-hand sides each.
//
// BENCHMARK.json lists dense and cacg_batch16.  cacg_single stays
// runnable by hand, but its ~0.2 ms phases wait on every worker, so
// a vCPU the host takes away for a few ms stalls every phase: on a
// shared host its tail and throughput swing by 2x from run to run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "sparse/csr.hpp"
#include "trace.hpp"

namespace wabench {

/// Geometry of the virtual machine a workload runs on.
struct Shape {
  std::size_t P, M1, M2, M3;
};

// Dense workload sizes.  n keeps every collective hop (the largest is
// the 2.5D replica, an (n/2) x (n/4) block) below ShmTransport's
// 32768-word threshold for concurrent hop threads, so the process never
// runs more threads than the backend pool.
inline constexpr Shape kDenseShape{16, 48, 1 << 14, std::size_t(1) << 24};
inline constexpr std::size_t kDenseN = 448;
inline constexpr std::size_t kLuPanel = 16;  ///< LU panel width b
inline constexpr std::size_t kLuBatch = 2;   ///< left-looking fetch batch s

// Krylov workload sizes (the capacities bench_krylov uses).
inline constexpr Shape kKrylovShape{16, 192, 4096, std::size_t(1) << 26};
inline constexpr std::size_t kStencilEdge = 64;  ///< 64 x 64 9-point stencil
inline constexpr std::size_t kGraphN = 4096;     ///< small-world nodes
inline constexpr std::size_t kCaS = 4;
inline constexpr double kKrylovTol = 1e-8;
inline constexpr std::size_t kBatch = 16;

/// The two Krylov operators.  They are fixed, like the dense shapes:
/// the seed draws the right-hand sides, so the exact counts (which
/// depend on the partitions) stay comparable from seed to seed.
struct Operators {
  wa::sparse::Csr stencil;
  wa::sparse::Csr graph;
};
Operators krylov_operators();

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual Shape shape() const = 0;
  /// Distinct seeded inputs the operations cycle through.
  virtual std::size_t pool() const = 0;
  /// (Re)build the partitions the operations use: part of set-up.
  virtual void build_partitions() {}
  /// Fresh output buffers and in-place inputs for input @p k (untimed).
  virtual OpResult prepare(std::size_t k) const = 0;
  /// The timed operation: every library call of one round.
  virtual void run(wa::dist::Machine& m, std::size_t k, OpResult& r,
                   Tracer* tracer) const = 0;
  /// Numeric checks against the workload's own references (untimed);
  /// sets r.units and, on a miss, r.failure.
  virtual void check(std::size_t k, OpResult& r) const = 0;
  /// One line on sizes and working sets, for the run's context line.
  virtual std::string describe() const = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Run one algorithm call as part of an operation: resets the machine's
/// counters, opens a "call" span when tracing, and adds the call's
/// counters, model cost and wall-clock accessors to @p r.
void algorithm_call(wa::dist::Machine& m, Tracer* tracer, const char* name,
                    OpResult& r, const std::function<void()>& f);

}  // namespace wabench
