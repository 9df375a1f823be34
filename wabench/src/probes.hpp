#pragma once
// Direct layer probes of the traced run, and the host-contention probe
// every run takes at its start and end.  Each probe calls one layer's
// public functions in a loop and times it from outside.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace wabench {

/// Effective cores: nproc x (one spinning thread's time) / (time of
/// nproc threads spinning at once).  Near nproc on an idle host; lower
/// when other tenants hold the cores.
double parallel_capacity();

/// Results of the probe set; every field is reported as a per-layer
/// metric.
struct Probes {
  double fma_peak_gflops = 0;  ///< one core, independent FMA chains
  double gemm_gflops = 0;      ///< active_kernels() gemm at a dense rank shape
  double trsm_gflops = 0;      ///< active_kernels() trsm at an LU panel shape
  double copy_gbs = 0;         ///< bytes read + written per second
  double spmv_gbs = 0;         ///< computed bytes per second, both operators
  double empty_dispatch_us_serial = 0;
  double empty_dispatch_us_threaded = 0;
  double small_op_us = 0;      ///< shm reduce/bcast of an allreduce's words
  double large_gbs = 0;        ///< shm bcast of the dense workload's hop
  double partition_build_s = 0;
  double ns_per_event = 0;     ///< memsim Hierarchy load/store
  std::string notes;           ///< sizes each probe used
};

/// @p shape is the workload's machine: its rank count and capacities
/// size the dispatch and memsim probes.
Probes run_probes(const Shape& shape, std::size_t threads);

/// The SIMD FMA micro-loop (fma_kernel.cpp), built only when the
/// toolchain supports AVX2+FMA; the caller also checks the CPU.
bool fma_simd_built();
double fma_simd_loop(std::size_t iters);  ///< returns a checksum
inline constexpr double kSimdFlopsPerIter = 10 * 4 * 2;

}  // namespace wabench
