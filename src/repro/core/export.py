"""Export experiment results and figure tables to JSON / CSV.

Lets downstream users archive runs and plot the regenerated figures with
their own tooling (the paper's artifact ships gnuplot scripts; we ship data).
"""

from __future__ import annotations

import csv
import io
import json

from ..trace import StageHistogram, TraceReport
from .audit import AuditReport
from .report import Table
from .results import BreakdownTable, ExperimentResult
from .taxonomy import Category


def result_to_dict(result: ExperimentResult) -> dict:
    """Flatten an :class:`ExperimentResult` into JSON-serializable primitives.

    The ``audit`` key is present only when the run carried a conservation
    audit, so unaudited payloads are unchanged by the auditor feature.
    """
    payload = {
        "config": result.config_summary,
        "duration_ns": result.duration_ns,
        "total_throughput_gbps": result.total_throughput_gbps,
        "throughput_per_core_gbps": result.throughput_per_core_gbps,
        "throughput_per_sender_core_gbps": result.throughput_per_sender_core_gbps,
        "throughput_per_receiver_core_gbps": result.throughput_per_receiver_core_gbps,
        "bottleneck_side": result.bottleneck_side,
        "sender_utilization_cores": result.sender_utilization_cores,
        "receiver_utilization_cores": result.receiver_utilization_cores,
        "sender_breakdown": {
            cat.value: result.sender_breakdown.fraction(cat) for cat in Category
        },
        "receiver_breakdown": {
            cat.value: result.receiver_breakdown.fraction(cat) for cat in Category
        },
        "receiver_cache_miss_rate": result.receiver_cache_miss_rate,
        "sender_cache_miss_rate": result.sender_cache_miss_rate,
        "copy_latency_ns": result.copy_latency.to_dict(),
        "rx_skb_sizes": {str(k): v for k, v in sorted(result.rx_skb_sizes.items())},
        "retransmits": result.retransmits,
        "timeouts": result.timeouts,
        "nic_rx_drops": result.nic_rx_drops,
        "wire_drops": result.wire_drops,
        "acks_received_sender_side": result.acks_received_sender_side,
        "throughput_by_tag_gbps": dict(result.throughput_by_tag_gbps),
        "per_flow_gbps": {str(k): v for k, v in sorted(result.per_flow_gbps.items())},
    }
    if result.audit_report is not None:
        payload["audit"] = result.audit_report.to_dict()
    if result.trace is not None:
        payload["trace"] = result.trace.to_dict()
    return payload


def result_from_dict(payload: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`: rebuild an :class:`ExperimentResult`.

    Lossless: ``result_to_dict(result_from_dict(d)) == d`` for any dict
    produced by :func:`result_to_dict`. Derived quantities present in the
    payload (``bottleneck_side``, per-core throughputs) are ignored and
    recomputed from the stored fields. The result cache relies on this
    round-trip for its correctness invariant.
    """
    return ExperimentResult(
        config_summary=payload["config"],
        duration_ns=payload["duration_ns"],
        total_throughput_gbps=payload["total_throughput_gbps"],
        sender_utilization_cores=payload["sender_utilization_cores"],
        receiver_utilization_cores=payload["receiver_utilization_cores"],
        sender_breakdown=_breakdown_from_dict(payload["sender_breakdown"]),
        receiver_breakdown=_breakdown_from_dict(payload["receiver_breakdown"]),
        receiver_cache_miss_rate=payload["receiver_cache_miss_rate"],
        sender_cache_miss_rate=payload["sender_cache_miss_rate"],
        copy_latency=StageHistogram.from_dict(payload["copy_latency_ns"]),
        rx_skb_sizes={int(size): count
                      for size, count in payload["rx_skb_sizes"].items()},
        retransmits=payload["retransmits"],
        timeouts=payload["timeouts"],
        nic_rx_drops=payload["nic_rx_drops"],
        wire_drops=payload["wire_drops"],
        acks_received_sender_side=payload.get("acks_received_sender_side", 0),
        throughput_by_tag_gbps=dict(payload["throughput_by_tag_gbps"]),
        per_flow_gbps={int(flow): gbps
                       for flow, gbps in payload["per_flow_gbps"].items()},
        audit_report=(
            AuditReport.from_dict(payload["audit"]) if "audit" in payload else None
        ),
        trace=(
            TraceReport.from_dict(payload["trace"]) if "trace" in payload else None
        ),
    )


def _breakdown_from_dict(fractions: dict) -> BreakdownTable:
    return BreakdownTable(
        {Category(name): fraction for name, fraction in fractions.items()}
    )


def result_to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Serialize one result as a JSON document."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def result_from_json(document: str) -> ExperimentResult:
    """Inverse of :func:`result_to_json`."""
    return result_from_dict(json.loads(document))


def table_to_csv(table: Table) -> str:
    """Serialize a figure :class:`Table` as CSV (header = column names)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(row)
    return buffer.getvalue()


def table_to_json(table: Table, indent: int = 2) -> str:
    """Serialize a figure :class:`Table` as JSON records."""
    records = [dict(zip(table.columns, row)) for row in table.rows]
    return json.dumps({"title": table.title, "rows": records}, indent=indent)


def write(path: str, content: str) -> None:
    """Write exported content to ``path``."""
    with open(path, "w") as handle:
        handle.write(content)


def export_table(table: Table, path: str) -> None:
    """Export a figure table to ``path`` (.json or .csv by suffix)."""
    if path.endswith(".csv"):
        write(path, table_to_csv(table))
    elif path.endswith(".json"):
        write(path, table_to_json(table))
    else:
        raise ValueError(f"unsupported export format for {path!r} (use .csv/.json)")
