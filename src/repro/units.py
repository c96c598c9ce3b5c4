"""Unit helpers used throughout the simulator.

The simulator keeps time in integer *nanoseconds*, data sizes in integer
*bytes*, CPU work in floating-point *cycles*, and rates in *bits per second*.
These helpers make call sites read like the paper's prose ("100Gbps link",
"3200KB Rx buffer", "2ms NAPI timeout") instead of raw exponents.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000


def usec(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(value * USEC)


def msec(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(value * MSEC)


def sec(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(value * SEC)


def ns_to_sec(ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return ns / SEC


# --- data size --------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def kb(value: float) -> int:
    """Convert kibibytes to bytes."""
    return int(value * KB)


def mb(value: float) -> int:
    """Convert mebibytes to bytes."""
    return int(value * MB)


# --- rates -------------------------------------------------------------------

GBPS = 1_000_000_000
MBPS = 1_000_000


def gbps(value: float) -> float:
    """Convert gigabits/sec to bits/sec."""
    return value * GBPS


def bytes_to_bits(nbytes: float) -> float:
    """Convert a byte count to bits."""
    return nbytes * 8


#: Memo for :func:`transmission_time_ns` — traffic uses a handful of frame
#: sizes on one or two link rates, so the table stays tiny while the hot
#: per-frame call collapses to a dict hit.
_transmission_time_cache: dict = {}


def transmission_time_ns(nbytes: int, rate_bps: float) -> int:
    """Serialization delay of ``nbytes`` on a link of ``rate_bps``.

    Always at least 1ns so that events retain a strict ordering even for
    tiny control segments.
    """
    key = (nbytes, rate_bps)
    ns = _transmission_time_cache.get(key)
    if ns is None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        ns = _transmission_time_cache[key] = max(
            1, int(round(nbytes * 8 * SEC / rate_bps))
        )
    return ns


def throughput_gbps(nbytes: int, elapsed_ns: int) -> float:
    """Achieved goodput in Gbps for ``nbytes`` delivered over ``elapsed_ns``."""
    if elapsed_ns <= 0:
        return 0.0
    return bytes_to_bits(nbytes) / ns_to_sec(elapsed_ns) / GBPS
