"""Unit tests for result/table export."""

import csv
import io
import json

import pytest

from repro.core.export import (
    export_table,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
    table_to_csv,
    table_to_json,
)
from repro.core.report import Table
from repro.core.taxonomy import Category
from repro.trace import StageHistogram

from .test_results import make_result


def test_result_to_dict_round_trips_through_json():
    payload = result_to_dict(make_result(total=42.0))
    again = json.loads(json.dumps(payload))
    assert again["total_throughput_gbps"] == 42.0
    assert again["bottleneck_side"] == "receiver"
    assert set(again["receiver_breakdown"]) == {
        "data_copy", "tcpip", "netdev", "skb_mgmt",
        "memory", "lock", "sched", "etc",
    }


def test_result_to_json_is_valid_json():
    document = json.loads(result_to_json(make_result()))
    assert "copy_latency_ns" in document


def rich_result():
    """A result exercising every field the round-trip must preserve."""
    result = make_result(total=33.0, skb_sizes={1500: 3, 9000: 7, 65536: 2})
    result.copy_latency = StageHistogram()
    result.copy_latency.record_many([700, 700, 810, 2100, 2500, 0, 31])
    result.retransmits = 4
    result.timeouts = 1
    result.nic_rx_drops = 2
    result.wire_drops = 3
    result.acks_received_sender_side = 99
    result.throughput_by_tag_gbps = {"long": 20.0, "short": 13.0}
    result.per_flow_gbps = {0: 20.0, 7: 13.0}
    return result


def test_result_from_dict_is_lossless_inverse():
    payload = result_to_dict(rich_result())
    assert result_to_dict(result_from_dict(payload)) == payload


def test_result_from_dict_survives_json_round_trip():
    payload = json.loads(json.dumps(result_to_dict(rich_result())))
    rebuilt = result_from_dict(payload)
    assert rebuilt.rx_skb_sizes == {1500: 3, 9000: 7, 65536: 2}  # int keys again
    assert rebuilt.per_flow_gbps == {0: 20.0, 7: 13.0}
    assert rebuilt.copy_latency == rich_result().copy_latency
    assert rebuilt.acks_received_sender_side == 99
    assert rebuilt.sender_breakdown.fraction(Category.DATA_COPY) == 0.5


def test_result_from_dict_recomputes_derived_metrics():
    rebuilt = result_from_dict(result_to_dict(rich_result()))
    assert rebuilt.bottleneck_side == "receiver"
    assert rebuilt.throughput_per_core_gbps == rich_result().throughput_per_core_gbps


def test_result_from_json_inverts_result_to_json():
    result = rich_result()
    assert result_to_dict(result_from_json(result_to_json(result))) == \
        result_to_dict(result)


def test_trace_report_round_trips_through_export():
    from repro.trace import TraceHub

    hub = TraceHub()
    hub.side("receiver").stage("e2e").record(1500)
    hub.side("sender").stage("tx_queue").record(40)
    result = rich_result()
    result.trace = hub.report()

    payload = json.loads(json.dumps(result_to_dict(result)))
    rebuilt = result_from_dict(payload)
    assert rebuilt.trace == result.trace
    assert result_to_dict(rebuilt) == payload


def test_untraced_result_exports_without_trace_key():
    payload = result_to_dict(rich_result())
    assert "trace" not in payload
    assert result_from_dict(payload).trace is None


def make_table():
    table = Table("t", ["name", "value"])
    table.add_row("a", 1.5)
    table.add_row("b", 2.5)
    return table


def test_table_to_csv():
    rows = list(csv.reader(io.StringIO(table_to_csv(make_table()))))
    assert rows[0] == ["name", "value"]
    assert rows[1] == ["a", "1.5"]


def test_table_to_json():
    document = json.loads(table_to_json(make_table()))
    assert document["title"] == "t"
    assert document["rows"][1] == {"name": "b", "value": 2.5}


def test_export_table_writes_files(tmp_path):
    table = make_table()
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    export_table(table, str(csv_path))
    export_table(table, str(json_path))
    assert "name,value" in csv_path.read_text()
    assert json.loads(json_path.read_text())["title"] == "t"


def test_export_table_rejects_unknown_suffix(tmp_path):
    with pytest.raises(ValueError):
        export_table(make_table(), str(tmp_path / "out.xlsx"))
