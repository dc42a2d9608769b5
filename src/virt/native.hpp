// Platforms whose tasks are native host tasks: bare metal (BM) and
// Docker-style containers (CN).
//
// The paper models a bare-metal "instance" by booting the host with a
// limited number of cores (GRUB maxcpus); here the Host is simply built
// from `Topology::limited_to(cores)`, and tasks run directly on the host
// kernel with no cgroup and full affinity in either mode.
//
// A container is the coupling of a namespace and a cgroup (§II-C), so a
// CN is the same executor plus a host cgroup whose quota is
// `cores × period` (docker --cpus). In vanilla mode its tasks float over
// all host cpus; in pinned mode the cgroup carries a compact cpuset
// (docker --cpuset-cpus) and tasks wake sticky.
#pragma once

#include "os/cgroup.hpp"
#include "virt/platform.hpp"

namespace pinsim::virt {

class NativePlatform final : public Platform {
 public:
  /// A BareMetal `host` must already be sized to the instance (limited
  /// topology); the constructor checks this.
  NativePlatform(Host& host, PlatformSpec spec);

  os::Task& spawn(WorkTaskConfig config,
                  std::unique_ptr<os::TaskDriver> driver) override;
  void start(os::Task& task) override;
  void post(os::Task& task, int count) override;
  int visible_cpus() const override;

  /// The container's host cgroup; null on bare metal.
  const os::Cgroup* cgroup() const { return cgroup_; }

 private:
  os::Cgroup* cgroup_ = nullptr;
};

}  // namespace pinsim::virt
