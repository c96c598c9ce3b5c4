"""Unit tests for unit-conversion helpers."""

import pytest

from repro import units


def test_time_conversions():
    assert units.usec(1) == 1_000
    assert units.msec(1.5) == 1_500_000
    assert units.sec(2) == 2_000_000_000
    assert units.ns_to_sec(1_000_000_000) == 1.0


def test_size_conversions():
    assert units.kb(1) == 1024
    assert units.mb(2) == 2 * 1024 * 1024
    assert units.kb(3200) == 3_276_800


def test_rate_conversions():
    assert units.gbps(100) == 100e9
    assert units.bytes_to_bits(10) == 80


def test_transmission_time_100g():
    # 9000B at 100Gbps = 720ns
    assert units.transmission_time_ns(9000, 100e9) == 720


def test_transmission_time_minimum_1ns():
    assert units.transmission_time_ns(1, 1e15) == 1


def test_transmission_time_invalid_rate():
    with pytest.raises(ValueError):
        units.transmission_time_ns(100, 0)


def test_throughput_gbps():
    # 125MB over 10ms = 100Gbps
    assert units.throughput_gbps(125_000_000, 10_000_000) == pytest.approx(100.0)


def test_throughput_zero_elapsed():
    assert units.throughput_gbps(100, 0) == 0.0
