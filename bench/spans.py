"""Span files written by tracer.py, self times, and the per-layer metrics.

A span is (name, start_ns, end_ns, parent) where parent is the index of the
enclosing span or -1. One op writes one span file; spans are stored in the
order they started.
"""

from __future__ import annotations

import array
import json
from collections import Counter, defaultdict

from workloads import CHECK_NAMES

TABLE_BUILDS = (
    "stirling.f_table",
    "stirling.d_table",
    "stirling.stirling_first",
    "constants.c_table",
    "constants.q_table",
)
VERIFY_SPANS = frozenset(f"verify.{name}" for name in CHECK_NAMES)

# Per-layer metric -> the span name whose summed self time (SELF_TIME) or
# number of spans (CALLS) it reports.
SELF_TIME = {
    "cli.self_s": "cli.main",
    "stirling.f_table_s": "stirling.f_table",
    "stirling.d_table_s": "stirling.d_table",
    "stirling.stirling_first_s": "stirling.stirling_first",
    "stirling.f_direct_s": "stirling.f_direct",
    "stirling.f_from_subsets_s": "stirling.f_from_subsets",
    "constants.c_table_s": "constants.c_table",
    "constants.q_table_s": "constants.q_table",
    "constants.lambda_product_s": "constants.lambda_product",
    "constants.q_direct_s": "constants.q_direct",
    "exact_arith.lcm_list_s": "exact_arith.lcm_list",
    "exact_arith.lcm_range_s": "exact_arith.lcm_range",
    "exact_arith.primes_up_to_s": "exact_arith.primes_up_to",
    "exact_arith.is_prime_s": "exact_arith.is_prime",
    "exact_arith.vp_int_s": "exact_arith.vp_int",
    "verify.oracle_s": "verify.oracle",
    "binomial_poly.derivative_s": "binomial_poly.derivative",
    "binomial_poly.to_monomial_s": "binomial_poly.to_monomial",
    "binomial_poly.to_binomial_s": "binomial_poly.to_binomial",
    "binomial_poly.from_values_s": "binomial_poly.from_values",
    "binomial_poly.eval_int_s": "binomial_poly.eval_int",
    "triangles.construct_s": "triangles.construct",
    **{f"verify.{name}_s": f"verify.{name}" for name in CHECK_NAMES},
}
CALLS = {
    "stirling.f_table_calls": "stirling.f_table",
    "stirling.f_direct_calls": "stirling.f_direct",
    "constants.c_table_calls": "constants.c_table",
    "constants.q_table_calls": "constants.q_table",
    "constants.lambda_product_calls": "constants.lambda_product",
    "exact_arith.lcm_range_calls": "exact_arith.lcm_range",
    "exact_arith.is_prime_calls": "exact_arith.is_prime",
    "verify.oracle_calls": "verify.oracle",
    "binomial_poly.derivative_calls": "binomial_poly.derivative",
    "binomial_poly.from_values_calls": "binomial_poly.from_values",
}
TALLIES = ("stirling.compositions_items", "triangles.entries")
COUNTS = (*CALLS, *TALLIES, "cli.out_bytes", "verify.table_builds")


def write(path: str, names: list[str], flat: array.array, tallies: dict[str, int]) -> None:
    """Span file: a JSON header line, then the spans as native int64 quads."""
    with open(path, "wb") as handle:
        handle.write(json.dumps({"names": names, "tallies": tallies}).encode() + b"\n")
        flat.tofile(handle)


def read(path: str) -> tuple[list[tuple[str, int, int, int]], dict[str, int]]:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        flat = array.array("q", handle.read())
    names = header["names"]
    spans = [
        (names[flat[i]], flat[i + 1], flat[i + 2], flat[i + 3]) for i in range(0, len(flat), 4)
    ]
    return spans, header["tallies"]


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    covered = [0] * len(spans)
    reach = [None] * len(spans)  # end of the covered prefix of each parent
    for i in sorted(range(len(spans)), key=lambda i: spans[i][1]):
        _, start, end, parent = spans[i]
        if parent < 0:
            continue
        _, parent_start, parent_end, _ = spans[parent]
        lo, hi = max(start, parent_start), min(end, parent_end)
        if reach[parent] is not None:
            lo = max(lo, reach[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def op_layers(spans: list[tuple[str, int, int, int]], tallies: dict[str, int]) -> dict:
    """Self time (ns) and call count per span name, plus verify table builds."""
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        self_ns[name] += own
        calls[name] += 1
    builds, kinds = 0, set()
    for name, _, _, parent in spans:
        if name not in TABLE_BUILDS:
            continue
        while parent >= 0 and spans[parent][0] not in VERIFY_SPANS:
            parent = spans[parent][3]
        if parent >= 0:
            builds += 1
            kinds.add(name)
    return {
        "self_ns": dict(self_ns),
        "calls": dict(calls),
        "tallies": dict(tallies),
        "builds": builds,
        "build_kinds": len(kinds),
        "root_ns": sum(end - start for _, start, end, parent in spans if parent < 0),
    }


def block_metrics(layers: list[dict], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one block from the op_layers of its ops."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    tallies: Counter = Counter()
    for op in layers:
        self_ns.update(op["self_ns"])
        calls.update(op["calls"])
        tallies.update(op["tallies"])
    builds = sum(op["builds"] for op in layers)
    metrics: dict[str, float] = {m: self_ns[src] / 1e9 for m, src in SELF_TIME.items()}
    metrics.update({m: calls[src] for m, src in CALLS.items()})
    metrics.update({m: tallies[m] for m in TALLIES})
    metrics["cli.out_bytes"] = out_bytes
    metrics["verify.table_builds"] = builds
    metrics["verify.useful_build_ratio"] = (
        sum(op["build_kinds"] for op in layers) / builds if builds else 0.0
    )
    return metrics
