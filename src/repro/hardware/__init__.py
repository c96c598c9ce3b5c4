"""Host hardware substrate: topology, cores, caches, NIC, DMA, links."""

from .topology import Topology, NumaNode
from .cpu import Core
from .cache import DcaRegion, L3CacheModel
from .link import Link, Frame
from .steering import SteeringEngine
from .nic import Nic, RxQueue

__all__ = [
    "Topology",
    "NumaNode",
    "Core",
    "DcaRegion",
    "L3CacheModel",
    "Link",
    "Frame",
    "SteeringEngine",
    "Nic",
    "RxQueue",
]
