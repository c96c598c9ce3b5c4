"""Ablations of the model's mechanisms (``repro.figures.ablations``)."""


def test_steering_ablation(panels):
    table = panels["ablation_steering"]
    per_core = dict(zip(table.column("mechanism"),
                        table.column("thpt_per_core_gbps")))
    assert per_core["aRFS"] > per_core["RFS"]  # only aRFS unlocks DCA
    assert per_core["aRFS"] > per_core["RSS (worst-case pin)"]


def test_lro_ablation(panels):
    """The paper reaches ~55Gbps with LRO: NIC merging skips GRO cycles."""
    table = panels["ablation_lro"]
    gro, lro = table.rows
    assert lro[1] > gro[1]        # LRO is faster per core...
    assert lro[2] < gro[2]        # ...because the netdev share shrinks


def test_dca_dilution_ablation(panels):
    table = panels["ablation_dca_dilution"]
    throughputs = table.column("thpt_gbps")
    assert throughputs[0] > throughputs[2]  # stronger dilution hurts


def test_zero_copy_ablation(panels):
    """The paper projects ~100Gbps-per-core without the receive copy."""
    table = panels["ablation_zero_copy"]
    baseline, zero = table.column("thpt_per_core_gbps")
    assert zero > 1.6 * baseline
    assert zero > 80
