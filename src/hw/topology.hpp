// Host CPU topology.
//
// Models the socket / physical-core / SMT-thread hierarchy and the cache
// sharing domains that drive migration penalties: SMT siblings share L1/L2,
// cores on a socket share the LLC, and cross-socket moves lose everything.
// The reference machine is the paper's testbed, a Dell PowerEdge R830
// (4 × Xeon E5-4628L v4: 14 cores / 28 threads per socket, 35 MB LLC).
#pragma once

#include <string>

#include "hw/cpuset.hpp"
#include "util/check.hpp"

namespace pinsim::hw {

/// How far apart two logical CPUs are in the cache hierarchy.
enum class CpuDistance {
  SameCpu,     // identical logical cpu
  SmtSibling,  // same physical core, shares L1/L2
  SameSocket,  // same socket, shares LLC
  CrossSocket  // different socket, shares only DRAM
};

const char* to_string(CpuDistance distance);

class Topology {
 public:
  /// `sockets` × `cores_per_socket` physical cores, each with
  /// `threads_per_core` SMT threads. Logical cpu ids are dense:
  /// cpu = ((socket * cores_per_socket) + core) * threads_per_core + thread.
  /// `private_cache_mb` is the per-core private state (L1+L2+TLB
  /// footprint) that must be refilled even when the LLC stays warm.
  Topology(int sockets, int cores_per_socket, int threads_per_core,
           double llc_mb_per_socket, double private_cache_mb = 1.0);

  /// The paper's testbed: 4 sockets x 14 cores x 2 SMT = 112 logical CPUs,
  /// 35 MB LLC per socket.
  static Topology dell_r830();

  /// The 16-core homogeneous host from the CHR experiment (Fig. 7):
  /// 1 socket x 8 cores x 2 SMT.
  static Topology small_host_16();

  /// A host with the first `n` logical cpus of this topology enabled —
  /// the paper models bare-metal instance sizes by limiting cores with
  /// GRUB `maxcpus=`, which enables the first n enumerated CPUs.
  Topology limited_to(int n) const;

  int num_cpus() const { return num_cpus_; }
  int sockets() const { return sockets_; }
  int cores_per_socket() const { return cores_per_socket_; }
  int threads_per_core() const { return threads_per_core_; }
  double llc_mb_per_socket() const { return llc_mb_per_socket_; }
  double private_cache_mb() const { return private_cache_mb_; }

  CpuSet all_cpus() const { return CpuSet::first_n(num_cpus_); }

  /// Inline: the schedulers call it on every dispatch and mask refresh.
  int socket_of(CpuId cpu) const {
    PINSIM_CHECK(cpu >= 0 && cpu < num_cpus_);
    return cpu / (cores_per_socket_ * threads_per_core_);
  }
  /// Physical-core index (global across sockets); SMT siblings share it.
  int core_of(CpuId cpu) const;

  CpuDistance distance(CpuId a, CpuId b) const;

  /// The cpus sharing the LLC with `cpu` (its socket).
  CpuSet socket_cpus(int socket) const;

  /// A compact set of `n` cpus suitable for pinning: fills whole physical
  /// cores (both SMT threads) socket by socket, which is how the paper's
  /// pinning scripts allocate cpusets.
  CpuSet compact_set(int n) const;

  std::string describe() const;

 private:
  Topology(int sockets, int cores_per_socket, int threads_per_core,
           double llc_mb_per_socket, double private_cache_mb, int limit);

  int sockets_;
  int cores_per_socket_;
  int threads_per_core_;
  double llc_mb_per_socket_;
  double private_cache_mb_;
  int num_cpus_;
};

}  // namespace pinsim::hw
