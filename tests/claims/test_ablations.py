"""Ablations of the model's mechanisms (``repro.figures.ablations``)."""

from repro.figures import ablations


def test_steering_ablation():
    table = ablations.ablation_steering()
    per_core = dict(zip(table.column("mechanism"),
                        table.column("thpt_per_core_gbps")))
    assert per_core["aRFS"] > per_core["RFS"]  # only aRFS unlocks DCA
    assert per_core["aRFS"] > per_core["RSS (worst-case pin)"]


def test_lro_ablation():
    """The paper reaches ~55Gbps with LRO: NIC merging skips GRO cycles."""
    table = ablations.ablation_lro()
    gro, lro = table.rows
    assert lro[1] > gro[1]        # LRO is faster per core...
    assert lro[2] < gro[2]        # ...because the netdev share shrinks


def test_dca_dilution_ablation():
    table = ablations.ablation_dca_dilution()
    throughputs = table.column("thpt_gbps")
    assert throughputs[0] > throughputs[2]  # stronger dilution hurts


def test_zero_copy_ablation():
    """The paper projects ~100Gbps-per-core without the receive copy."""
    table = ablations.ablation_zero_copy()
    baseline, zero = table.column("thpt_per_core_gbps")
    assert zero > 1.6 * baseline
    assert zero > 80
