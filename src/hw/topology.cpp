#include "hw/topology.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace pinsim::hw {

const char* to_string(CpuDistance distance) {
  switch (distance) {
    case CpuDistance::SameCpu:
      return "same-cpu";
    case CpuDistance::SmtSibling:
      return "smt-sibling";
    case CpuDistance::SameSocket:
      return "same-socket";
    case CpuDistance::CrossSocket:
      return "cross-socket";
  }
  return "unknown";
}

Topology::Topology(int sockets, int cores_per_socket, int threads_per_core,
                   double llc_mb_per_socket, double private_cache_mb)
    : Topology(sockets, cores_per_socket, threads_per_core,
               llc_mb_per_socket, private_cache_mb,
               sockets * cores_per_socket * threads_per_core) {}

Topology::Topology(int sockets, int cores_per_socket, int threads_per_core,
                   double llc_mb_per_socket, double private_cache_mb,
                   int limit)
    : sockets_(sockets),
      cores_per_socket_(cores_per_socket),
      threads_per_core_(threads_per_core),
      llc_mb_per_socket_(llc_mb_per_socket),
      private_cache_mb_(private_cache_mb),
      num_cpus_(limit) {
  PINSIM_CHECK(sockets >= 1);
  PINSIM_CHECK(cores_per_socket >= 1);
  PINSIM_CHECK(threads_per_core >= 1);
  PINSIM_CHECK(llc_mb_per_socket > 0.0);
  PINSIM_CHECK(private_cache_mb > 0.0);
  const int full = sockets * cores_per_socket * threads_per_core;
  PINSIM_CHECK(limit >= 1 && limit <= full);
  PINSIM_CHECK(full <= CpuSet::kMaxCpus);
}

Topology Topology::dell_r830() { return Topology(4, 14, 2, 35.0); }

Topology Topology::small_host_16() { return Topology(1, 8, 2, 20.0); }

Topology Topology::limited_to(int n) const {
  return Topology(sockets_, cores_per_socket_, threads_per_core_,
                  llc_mb_per_socket_, private_cache_mb_, n);
}

int Topology::core_of(CpuId cpu) const {
  PINSIM_CHECK(cpu >= 0 && cpu < num_cpus_);
  return cpu / threads_per_core_;
}

CpuDistance Topology::distance(CpuId a, CpuId b) const {
  PINSIM_CHECK(a >= 0 && a < num_cpus_);
  PINSIM_CHECK(b >= 0 && b < num_cpus_);
  if (a == b) return CpuDistance::SameCpu;
  if (core_of(a) == core_of(b)) return CpuDistance::SmtSibling;
  if (socket_of(a) == socket_of(b)) return CpuDistance::SameSocket;
  return CpuDistance::CrossSocket;
}

CpuSet Topology::socket_cpus(int socket) const {
  PINSIM_CHECK(socket >= 0 && socket < sockets_);
  const int per_socket = cores_per_socket_ * threads_per_core_;
  const int lo = socket * per_socket;
  const int hi = std::min(lo + per_socket, num_cpus_);
  if (lo >= num_cpus_) return CpuSet();
  return CpuSet::range(lo, hi);
}

CpuSet Topology::compact_set(int n) const {
  PINSIM_CHECK_MSG(n >= 1 && n <= num_cpus_,
                   "cannot pin " << n << " cpus on a " << num_cpus_
                                 << "-cpu host");
  // Dense enumeration already fills core-by-core, socket-by-socket.
  return CpuSet::first_n(n);
}

std::string Topology::describe() const {
  std::ostringstream os;
  os << sockets_ << " socket(s) x " << cores_per_socket_ << " core(s) x "
     << threads_per_core_ << " thread(s), " << num_cpus_
     << " logical cpus enabled, " << llc_mb_per_socket_ << " MB LLC/socket";
  return os.str();
}

}  // namespace pinsim::hw
