"""Unit tests for the cost model and calibration profiles."""

import dataclasses

import pytest

from repro.costs.calibration import default_cost_model, zero_copy_cost_model
from repro.costs.model import CostModel


def test_default_model_validates():
    default_cost_model().validate()


def test_replace_overrides_single_field():
    model = default_cost_model()
    other = model.replace(copy_per_byte_l3_hit=0.5)
    assert other.copy_per_byte_l3_hit == 0.5
    assert model.copy_per_byte_l3_hit != 0.5


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        default_cost_model().replace(irq_cycles=-1).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_cost_rejected(value):
    with pytest.raises(ValueError, match="irq_cycles"):
        default_cost_model().replace(irq_cycles=value).validate()


def test_miss_costs_exceed_hit_costs():
    model = default_cost_model()
    assert model.copy_per_byte_l3_miss > model.copy_per_byte_l3_hit
    assert model.page_alloc_global_cycles > model.page_alloc_pcp_cycles
    assert model.sock_lock_contended > model.sock_lock_uncontended
    assert model.page_free_remote_cycles > model.page_free_local_cycles


def test_zero_copy_profile_removes_per_byte_costs():
    model = zero_copy_cost_model()
    assert model.copy_per_byte_l3_hit == 0.0
    assert model.copy_per_byte_l3_miss == 0.0
    assert model.copy_per_call > 0  # pinning overhead remains


def test_all_fields_are_floats():
    for field in dataclasses.fields(CostModel):
        assert isinstance(getattr(default_cost_model(), field.name), float)
