"""Random experiment configs shared by the property suites.

The strategy spans the dimensions that stress the data path: loss (drops,
SACK recovery, timeouts), ECN/DCTCP (marking) and BBR (pacing), small MTU
(multi-frame batches), RPC interleave (both directions active), aRFS on/off
(steering targets) and LRO (NIC-side merge). Windows are short so a drawn
config runs in well under a second.
"""

from hypothesis import strategies as st

from repro.config import (
    CongestionControl,
    ExperimentConfig,
    LinkConfig,
    OptimizationConfig,
    TcpConfig,
    TrafficPattern,
    WorkloadConfig,
)
from repro.units import msec

_OPTS = [
    OptimizationConfig.none(),
    OptimizationConfig.tso_gro_only(),
    OptimizationConfig.tso_gro_jumbo(),
    OptimizationConfig.all(),
    OptimizationConfig(tso_gro=True, jumbo=True, arfs=True, lro=True),
]

_PATTERNS = [
    (TrafficPattern.SINGLE, 1),
    (TrafficPattern.ONE_TO_ONE, 2),
    (TrafficPattern.INCAST, 3),
    (TrafficPattern.MIXED, 1),
]

_CCS = [CongestionControl.CUBIC, CongestionControl.DCTCP, CongestionControl.BBR]


@st.composite
def experiment_configs(draw):
    pattern, num_flows = draw(st.sampled_from(_PATTERNS))
    lossy = draw(st.booleans())
    link = LinkConfig(
        loss_rate=draw(st.sampled_from([2e-4, 1e-3])) if lossy else 0.0,
        has_switch=lossy,
    )
    workload = WorkloadConfig()
    if pattern is TrafficPattern.MIXED:
        workload = WorkloadConfig(num_rpc_flows=draw(st.integers(1, 2)))
    return ExperimentConfig(
        pattern=pattern,
        num_flows=num_flows,
        duration_ns=msec(1),
        warmup_ns=msec(1),
        seed=draw(st.integers(1, 5)),
        opts=draw(st.sampled_from(_OPTS)),
        tcp=TcpConfig(congestion_control=draw(st.sampled_from(_CCS))),
        link=link,
        workload=workload,
    )
