"""L3 cache and Direct Cache Access (DDIO) model.

The paper's findings on caching (§3.1, Fig 3e/3f, Fig 4, Fig 6c):

* DDIO DMAs NIC frames straight into a small slice (~18%) of the NIC-local
  L3 cache. Data that the application copies out *before* subsequent DMAs
  overwrite it is an L3 hit; data evicted first is a miss.
* Large BDPs / Rx buffers keep more DMA'd-not-yet-copied bytes in flight than
  the DCA slice holds, so the oldest data is evicted before its copy — the
  origin of the surprising 49% single-flow miss rate.
* Many NIC Rx descriptors spread DMA writes across more addresses; imperfect
  replacement/complex addressing then wastes capacity even when in-flight
  data is small. Modeled as a dilution of effective capacity once the
  descriptor footprint exceeds the slice.

:class:`DcaRegion` implements the slice with *hazard-based random-victim*
eviction: DDIO is confined to ~2 ways of each set, sets fill unevenly, and a
write to a full set evicts its LRU way — so eviction pressure starts well
before the aggregate slice is full and grows with occupancy. Each DMA write
of ``b`` bytes therefore evicts ``b * occupancy / capacity`` bytes of
uniformly-chosen resident data (plus a hard-capacity backstop). This yields
the smooth survival curve ``hit ~ exp(-inflight / capacity)`` that the
paper's Fig 3e exhibits, instead of the all-or-nothing threshold a strict
FIFO model would produce (the application also consumes in FIFO order, so
strict FIFO would degenerate to 0% hits whenever in-flight bytes exceed
capacity).

Sender-side L3 warmth is modeled by :class:`L3CacheModel` as an occupancy
heuristic: the sender's working set (application write buffers) is tiny
relative to L3, so misses stay low but grow with the number of colocated
flows (Fig 7c).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple


class DcaRegion:
    """The DDIO-reachable slice of one NUMA node's L3 cache.

    Tracks residency of DMA'd-but-not-yet-copied regions (one region per
    received frame) with random-victim eviction on capacity overflow.
    """

    #: Effective-capacity multiplier for the eviction hazard: victims skew
    #: towards lines that were going to be replaced anyway, so survival is a
    #: bit better than raw capacity suggests. Calibrated so the paper's
    #: default single-flow configuration lands near its observed ~49% miss.
    HAZARD_SCALE = 1.3

    def __init__(
        self,
        node_id: int,
        capacity_bytes: int,
        dilution_exponent: float = 0.25,
        enabled: bool = True,
        rng: Optional[random.Random] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("DCA capacity must be positive")
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.dilution_exponent = dilution_exponent
        self.enabled = enabled
        self.rng = rng if rng is not None else random.Random(0)
        self._descriptor_footprint = 0
        self._effective_capacity = capacity_bytes
        self._hazard_cap = capacity_bytes * self.HAZARD_SCALE
        #: Resident regions: ``_keys[i]`` holds ``_sizes[i]`` bytes, and
        #: ``_key_index`` maps a region to its ``i``. Removal swaps the last
        #: entry into the hole, so a random victim is one O(1) draw.
        self._keys: List[int] = []
        self._sizes: List[int] = []
        self._key_index: Dict[int, int] = {}
        self._occupancy = 0
        self._evict_debt = 0.0
        # statistics
        self.bytes_written = 0
        self.bytes_evicted = 0

    # --- configuration ----------------------------------------------------------

    def set_descriptor_footprint(self, footprint_bytes: int) -> None:
        """Total DMA-able memory across the NIC's posted Rx descriptors.

        Footprints beyond the slice capacity dilute effective capacity
        (imperfect replacement / complex cache addressing, §3.1).
        """
        self._descriptor_footprint = max(0, footprint_bytes)
        cap = self.capacity_bytes
        footprint = self._descriptor_footprint
        if footprint <= cap:
            eff = cap
        else:
            eff = max(1, int(cap * (cap / footprint) ** self.dilution_exponent))
        self._effective_capacity = eff
        self._hazard_cap = eff * self.HAZARD_SCALE

    @property
    def effective_capacity(self) -> int:
        """Usable bytes of the slice after descriptor-footprint dilution.

        Recomputed only when the descriptor footprint changes; ``dma_write``
        reads the cached value on every DMA.
        """
        return self._effective_capacity

    @property
    def occupancy(self) -> int:
        return self._occupancy

    # --- data path ------------------------------------------------------------------

    def dma_write(self, region_id: int, nbytes: int) -> None:
        """A NIC DMA of ``nbytes`` lands in the cache slice as ``region_id``.

        Evicts uniformly-random resident regions with a hazard proportional
        to occupancy (see module docstring), plus a hard-capacity backstop.
        Each eviction swap-removes its victim inline (as :meth:`consume`
        does): tens of thousands of victims a run.
        """
        if not self.enabled or nbytes <= 0:
            return
        self.bytes_written += nbytes
        occupancy = self._occupancy
        debt = self._evict_debt + nbytes * (occupancy / self._hazard_cap)
        # Accumulate when a region grows (LRO appends to an existing region).
        keys = self._keys
        sizes = self._sizes
        key_index = self._key_index
        index = key_index.get(region_id)
        if index is None:
            key_index[region_id] = len(keys)
            keys.append(region_id)
            sizes.append(nbytes)
        else:
            sizes[index] += nbytes
        occupancy += nbytes
        randrange = self.rng.randrange
        evicted_bytes = 0
        cap = self._effective_capacity
        # Hazard evictions while debt remains, then the backstop: the slice
        # can never physically hold more than capacity. Both draw victims
        # the same way, and the incoming write itself stays resident.
        while (debt > 0 or occupancy > cap) and len(keys) > 1:
            index = randrange(len(keys))
            victim = keys[index]
            if victim == region_id:
                continue
            evicted = sizes[index]
            del key_index[victim]
            last = keys.pop()
            last_size = sizes.pop()
            if index < len(keys):
                keys[index] = last
                sizes[index] = last_size
                key_index[last] = index
            occupancy -= evicted
            if debt > 0:
                debt -= evicted
            evicted_bytes += evicted
        self._occupancy = occupancy
        self._evict_debt = debt
        self.bytes_evicted += evicted_bytes

    def consume(self, region_id: int, nbytes: int) -> Tuple[int, int]:
        """The application copies ``region_id`` out of the cache.

        Returns ``(hit_bytes, miss_bytes)`` and removes the region.
        """
        index = self._key_index.pop(region_id, None)
        if index is None:
            return 0, nbytes
        keys = self._keys
        sizes = self._sizes
        resident = sizes[index]
        self._occupancy -= resident
        last = keys.pop()
        last_size = sizes.pop()
        if index < len(keys):
            keys[index] = last
            sizes[index] = last_size
            self._key_index[last] = index
        hit = resident if resident < nbytes else nbytes
        return hit, nbytes - hit

    def discard(self, region_id: int) -> None:
        """Drop a region without consuming it (e.g. the frame was dropped)."""
        self.consume(region_id, 0)


class L3CacheModel:
    """Per-host cache bookkeeping: DCA slices per node + warm-set heuristics.

    ``register_working_set`` adds to the per-node application working sets
    (send buffers). ``sender_miss_rate`` converts
    occupancy pressure into an L3 miss probability for sender-side copies.
    """

    #: Miss floor even with a warm cache (cold lines, TLB, prefetch misses).
    SENDER_MISS_FLOOR = 0.04
    #: How strongly working-set pressure converts into misses.
    SENDER_PRESSURE_SLOPE = 0.5

    def __init__(
        self,
        num_nodes: int,
        l3_bytes: int,
        dca_capacity_bytes: int,
        nic_node: int,
        dca_enabled: bool,
        dilution_exponent: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.l3_bytes = l3_bytes
        self.nic_node = nic_node
        self.dca_enabled = dca_enabled
        # DDIO only reaches the NIC-local node's L3 (§3.1, Fig 4).
        self.dca = DcaRegion(
            nic_node, dca_capacity_bytes, dilution_exponent, enabled=dca_enabled, rng=rng
        )
        self._working_set: Dict[int, int] = {node: 0 for node in range(num_nodes)}

    def register_working_set(self, node: int, nbytes: int) -> None:
        self._working_set[node] += nbytes

    def sender_miss_rate(self, node: int) -> float:
        """L3 miss probability for user->kernel copies on ``node``."""
        pressure = self._working_set.get(node, 0) / self.l3_bytes
        rate = self.SENDER_MISS_FLOOR + self.SENDER_PRESSURE_SLOPE * pressure
        return min(0.95, rate)
