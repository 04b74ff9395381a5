"""Modeled platforms: hosts, cores and channels for every testbed in the
paper.

Channel costs follow the classic latency/bandwidth model: transferring a
message of ``size`` bytes costs ``latency + size / bandwidth`` seconds.
Within a shared-memory host a "transfer" is a pointer hand-off through a
lock-free queue (sub-microsecond); across hosts the paper used Gigabit
Ethernet, Infiniband over IPoIB, or EC2's virtual network.

Core speeds are *relative* (1.0 = one reference core); the speedup curves
the benches reproduce are ratio quantities, so only relative speeds and
channel/service cost ratios matter (DESIGN.md section 3).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelSpec:
    """Latency (seconds) + bandwidth (bytes/second) message-cost model."""

    name: str
    latency: float
    bandwidth: float

    def transfer_time(self, size_bytes: float) -> float:
        return self.latency + size_bytes / self.bandwidth


#: hand-off through a lock-free shared-memory queue
SHARED_MEMORY = ChannelSpec("shared-memory", latency=1e-7, bandwidth=20e9)
#: Gigabit Ethernet (TCP/IP)
GIGABIT_ETHERNET = ChannelSpec("gbe", latency=60e-6, bandwidth=110e6)
#: Infiniband used through the TCP/IP stack (IPoIB), as in the paper
INFINIBAND_IPOIB = ChannelSpec("ipoib", latency=18e-6, bandwidth=900e6)
#: Amazon EC2 virtual network (2014-era, same-placement-group)
EC2_NETWORK = ChannelSpec("ec2", latency=150e-6, bandwidth=90e6)
#: wide-area link between EC2 and on-premise machines
WAN = ChannelSpec("wan", latency=2e-3, bandwidth=30e6)


@dataclass(frozen=True)
class HostSpec:
    """One shared-memory machine in a platform."""

    name: str
    cores: int
    core_speed: float = 1.0  # relative to the reference core

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError(f"host {self.name!r}: cores must be >= 1")
        if self.core_speed <= 0:
            raise ValueError(f"host {self.name!r}: core_speed must be > 0")


@dataclass(frozen=True)
class PlatformSpec:
    """A set of hosts plus intra-/inter-host channel models.

    ``host_channels`` optionally overrides the channel connecting one host
    to the master (index-aligned with ``hosts``; ``None`` entries fall
    back to ``inter_channel``) -- heterogeneous platforms mix LAN and WAN
    links.
    """

    name: str
    hosts: tuple[HostSpec, ...]
    intra_channel: ChannelSpec = SHARED_MEMORY
    inter_channel: ChannelSpec = GIGABIT_ETHERNET
    host_channels: tuple = ()

    def __post_init__(self):
        if not self.hosts:
            raise ValueError("a platform needs at least one host")
        if self.host_channels and len(self.host_channels) != len(self.hosts):
            raise ValueError(
                "host_channels must be index-aligned with hosts")

    def channel_to_master(self, host_index: int) -> ChannelSpec:
        if self.host_channels and self.host_channels[host_index] is not None:
            return self.host_channels[host_index]
        return self.inter_channel

    @property
    def total_cores(self) -> int:
        return sum(h.cores for h in self.hosts)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)


# ----------------------------------------------------------------------
# presets: one per testbed in the paper's Section V
# ----------------------------------------------------------------------

def intel32() -> PlatformSpec:
    """The paper's Intel workstation: 4 x 8-core E7-4820 Nehalem @2GHz
    (64 hyper-threads); we model the 32 physical cores."""
    return PlatformSpec(
        name="intel32",
        hosts=(HostSpec("nehalem", cores=32, core_speed=1.0),))


def cluster(n_hosts: int, cores_per_host: int = 12,
            network: ChannelSpec = INFINIBAND_IPOIB,
            core_speed: float = 1.5) -> PlatformSpec:
    """The paper's Infiniband cluster: 2 x six-core Xeon X5670 @3GHz per
    host, connected with IPoIB.  X5670 cores are ~1.5x the Nehalem
    reference core (3.0 vs 2.0 GHz)."""
    if n_hosts < 1:
        raise ValueError("n_hosts must be >= 1")
    hosts = tuple(
        HostSpec(f"xeon{i}", cores=cores_per_host, core_speed=core_speed)
        for i in range(n_hosts))
    return PlatformSpec(name=f"cluster{n_hosts}x{cores_per_host}",
                        hosts=hosts, inter_channel=network)


def ec2_virtual_cluster(n_vms: int = 8, cores_per_vm: int = 4) -> PlatformSpec:
    """The paper's virtual cluster: eight quad-core EC2 VMs."""
    hosts = tuple(
        HostSpec(f"vm{i}", cores=cores_per_vm, core_speed=1.3)
        for i in range(n_vms))
    return PlatformSpec(name=f"ec2x{n_vms}", hosts=hosts,
                        inter_channel=EC2_NETWORK)


def heterogeneous_96() -> PlatformSpec:
    """The paper's heterogeneous pool: 8 quad-core EC2 VMs (32 cores) +
    one 32-core Nehalem + two 16-core Sandy Bridge workstations = 96
    cores.  The master (generation + alignment + analysis) runs on the
    Nehalem workstation (host 0); the on-premise Sandy Bridge machines
    are one Ethernet hop away, the EC2 VMs sit behind a WAN link."""
    hosts = tuple(
        [HostSpec("nehalem", cores=32, core_speed=1.0)]
        + [HostSpec(f"sandy{i}", cores=16, core_speed=1.4) for i in range(2)]
        + [HostSpec(f"vm{i}", cores=4, core_speed=1.3) for i in range(8)])
    channels = tuple(
        [None, GIGABIT_ETHERNET, GIGABIT_ETHERNET] + [WAN] * 8)
    return PlatformSpec(name="hetero96", hosts=hosts,
                        inter_channel=WAN, host_channels=channels)
