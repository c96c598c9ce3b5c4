"""Derivation of the default cost-model constants from the paper's numbers.

The paper's testbed runs 3.4GHz cores. Anchor points used for calibration:

* **All-opt single long flow (Fig 3a/3d):** one fully-busy receiver core
  sustains ~42Gbps, i.e. ~0.65 cycles/byte end-to-end on the receiver, with
  data copy ~49% of cycles at a ~49% L3 miss rate (Fig 3e). Hence receiver
  copy ≈ 0.32 cyc/B at 49% misses ⇒ ``copy_per_byte_l3_hit`` ≈ 0.12 and
  ``copy_per_byte_l3_miss`` ≈ 0.50 (0.12·0.51 + 0.50·0.49 ≈ 0.31).
* **Outcast sender (Fig 7a):** a single sender core sustains ~89Gbps
  (~0.31 cyc/B) with a warm cache and copy ~40% of cycles ⇒ warm-cache copy
  ≈ 0.12 cyc/B, consistent with the receiver-side hit cost.
* **NIC-remote NUMA (Fig 4):** ~20% throughput-per-core drop when every copy
  byte misses L3 *and* crosses the interconnect ⇒
  ``copy_per_byte_remote_numa_extra`` ≈ 0.22 on top of the miss cost.
* **No-opt configuration (Fig 3a):** with 1500B skbs and no aggregation the
  stack delivers only ~6-10Gbps-per-core, dominated by TCP/IP — per-skb
  protocol costs (~1-2k cycles/skb across tcp+ip layers) reproduce this.
* **IOMMU (Fig 12):** enabling IOMMU costs two extra per-page operations
  (map + unmap) and drags memory management to ~30% of receiver cycles,
  giving map/unmap ≈ 650/750 cycles per 4KB page.
* **Scheduling (Fig 5c):** Linux context switch + wakeup ≈ 1-2µs at 3.4GHz ⇒
  ``context_switch_cycles`` ≈ 2200, ``wakeup_cycles`` ≈ 1400.

These constants are *inputs* to the simulator; every figure-level trend has to
emerge from mechanism frequency (how many skbs, how many misses, how many
wakeups), which is what the integration tests assert.
"""

from __future__ import annotations

from .model import CostModel


def default_cost_model() -> CostModel:
    """The calibrated default cost model (see module docstring)."""
    model = CostModel()
    model.validate()
    return model


def zero_copy_cost_model() -> CostModel:
    """A what-if cost model for the zero-copy future the paper's §4 sketches.

    Models ``MSG_ZEROCOPY``/TCP-``mmap``-style stacks: payload copies are free
    (pinning and page-table costs folded into a small per-call overhead).
    Used by the ``ablation_zero_copy`` panel (``figures/ablations.py``).
    """
    return default_cost_model().replace(
        copy_per_byte_l3_hit=0.0,
        copy_per_byte_l3_miss=0.0,
        copy_per_byte_remote_numa_extra=0.0,
        copy_per_call=900.0,  # pin/unpin + vm bookkeeping per call
    )
