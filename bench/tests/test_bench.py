"""Tests of the benchmark itself: op generation, output checks, span math.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ivpoly import cli  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode(), err.getvalue().encode()


def _failed(op: workloads.Op, rc: int, out: bytes, err: bytes = b"") -> bool:
    """Whether run.py would count this op as failed."""
    result = run.OpResult(rc=rc, wall_s=0.1, cpu_s=0.1, rss_kb=1, out=out, err=err)
    return run._record(op, 0, result, checks.Reference())["error"] is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    first = [workloads.block(workload, 7, i) for i in range(3)]
    again = [workloads.block(workload, 7, i) for i in reversed(range(3))][::-1]
    assert first == again
    assert first != [workloads.block(workload, 8, i) for i in range(3)]
    assert all(op.argv[0] in ("table", "seq", "verify") for ops in first for op in ops)


def test_table_sizes_cover_their_ranges():
    sizes = [int(op.argv[3]) for i in range(20) for op in workloads.block("table-c", 1, i)]
    assert 120 <= min(sizes) < 135 and 225 < max(sizes) <= 240


TABLE_OPS = [
    (kind, fmt)
    for kind in ("F", "d", "c", "q", "stirling")
    for fmt in ("md", "csv", "json")
]


def _bump(cell: str) -> str:
    return cell[:-1] + str((int(cell[-1]) + 1) % 10)


@pytest.mark.parametrize("kind,fmt", TABLE_OPS)
def test_correct_table_passes_and_corrupted_entry_fails(kind, fmt):
    op = workloads.Op(("table", kind, "--max-n", "14", "--format", fmt))
    rc, out, err = _cli(list(op.argv))
    assert not _failed(op, rc, out, err)
    n, k = 12, 11
    if fmt == "json":
        doc = json.loads(out)
        doc["rows"][n][k] = _bump(doc["rows"][n][k])
        corrupted = json.dumps(doc) + "\n"
    else:
        sep = " | " if fmt == "md" else ","
        lines = out.decode().split("\n")
        line = n + (2 if fmt == "md" else 1)
        cells = lines[line].split(sep)
        cells[k + 1] = _bump(cells[k + 1])
        lines[line] = sep.join(cells)
        corrupted = "\n".join(lines)
    assert corrupted != out.decode()
    assert _failed(op, rc, corrupted.encode(), err)


def test_table_layout_errors_fail():
    op = workloads.Op(("table", "c", "--max-n", "10", "--format", "md"))
    rc, out, err = _cli(list(op.argv))
    assert _failed(op, rc, out.replace(b"| 3 |", b"| 3|", 1), err)
    assert _failed(op, rc, out[:-1], err)
    assert _failed(op, 1, out, err)
    assert _failed(op, rc, out, b"warning\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "cn", "--max-n", "60", "--format", "md"),
        ("seq", "lambda", "--max-n", "60", "--format", "json"),
        ("seq", "lambda", "--factored", "--max-n", "60", "--format", "csv"),
    ],
)
def test_corrupted_sequence_term_fails(argv):
    op = workloads.Op(argv)
    rc, out, err = _cli(list(argv))
    assert not _failed(op, rc, out, err)
    json_format = argv[-1] == "json"
    terms = json.loads(out) if json_format else out.decode().split("\n")[:-1]

    def render(values):
        return (json.dumps(values) if json_format else "\n".join(values)).encode() + b"\n"

    assert render(terms) == out
    assert _failed(op, rc, render(terms[:40] + [_bump(terms[40])] + terms[41:]), err)
    assert _failed(op, rc, render(terms[:-1]), err)


def test_corrupted_verify_line_fails():
    op = workloads.Op(("verify", "lemma3", "--max-n", "40"))
    rc, out, err = _cli(list(op.argv))
    assert not _failed(op, rc, out, err)
    assert _failed(op, 1, out.replace(b": pass", b": FAIL"), err)
    assert _failed(op, rc, out.replace(b"40", b"30"), err)
    assert _failed(op, rc, out.replace(b"lemma3", b"lemma2"), err)
    every = workloads.Op(("verify", "all"))
    rc, out, err = _cli(["verify", "all"])
    assert not _failed(every, rc, out, err)
    assert _failed(every, rc, out.split(b"\n", 1)[1], err)


def test_capped_op_must_print_the_cap_message():
    op = workloads.Op(("verify", "theorem1", "--max-n", "15"), expect_rc=3)
    rc, out, err = _cli(list(op.argv))
    assert rc == 3 and not _failed(op, rc, out, err)
    assert _failed(op, rc, out, err.replace(b"14", b"15"))
    assert _failed(op, 0, b"theorem1: pass [1 <= n <= 15]\n", b"")


def test_failed_ops_count_in_the_ok_ratio(monkeypatch):
    ops = [
        workloads.Op(("verify", "corollary1", "--max-n", "70")),
        workloads.Op(("verify", "lemma1", "--max-n", "5")),
    ]
    monkeypatch.setattr(workloads, "block", lambda workload, seed, index: ops)

    class FakeRunner:
        def ivpoly(self, argv):
            rc, out, err = _cli(list(argv))
            if "lemma1" in argv:
                out = out.replace(b"pass", b"FAIL")
            return run.OpResult(rc=rc, wall_s=0.5, cpu_s=0.4, rss_kb=2048, out=out, err=err)

    metrics, records, info = run.run_plain(FakeRunner(), "verify", 1, deadline=0)
    assert info == {"blocks": 1, "ops": 2, "tail_percentile": 100}
    assert metrics["ok_ratio"] == 0.5 and metrics["wall_s"] == 1.0
    assert [r["error"] is None for r in records] == [True, False]


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 15, 25, 1),
        ("c", 50, 90, 0),
        ("d", 60, 70, 3),
        ("e", 75, 85, 3),
    ]
    own = spans.self_times(tree)
    assert own == [30, 20, 10, 20, 10, 10]
    assert sum(own) == 100
    # Overlapping children count once, and only inside their parent.
    assert spans.self_times([("p", 0, 10, -1), ("x", 2, 6, 0), ("y", 4, 12, 0)])[0] == 2


def test_verify_table_builds_and_useful_ratio():
    tree = [
        ("cli.main", 0, 100, -1),
        ("verify.theorem2", 1, 90, 0),
        ("stirling.f_table", 2, 10, 1),
        ("triangles.construct", 3, 4, 2),
        ("stirling.f_table", 11, 20, 1),
        ("constants.q_table", 21, 30, 1),
        ("stirling.f_table", 91, 99, 0),
    ]
    layer = spans.op_layers(tree, {"triangles.entries": 5})
    assert (layer["builds"], layer["build_kinds"]) == (3, 2)
    metrics = spans.block_metrics([layer], out_bytes=7)
    assert metrics["verify.table_builds"] == 3
    assert metrics["verify.useful_build_ratio"] == pytest.approx(2 / 3)
    assert metrics["stirling.f_table_calls"] == 3
    assert metrics["stirling.f_table_s"] == pytest.approx((7 + 9 + 8) / 1e9)
    assert metrics["cli.self_s"] == pytest.approx((100 - 89 - 8) / 1e9)
    assert metrics["triangles.entries"] == 5 and metrics["cli.out_bytes"] == 7


def test_tail_percentile_keeps_ten_values_beyond():
    values = [float(v) for v in range(1, 51)]
    assert run.tail(values) == (40.0, 80)
    assert run.tail(values[:11]) == (1.0, 9)
    assert run.tail(values[:10]) == (10.0, 100)


def test_tracer_preserves_output_and_nests_spans(tmp_path):
    argv = ["verify", "theorem2", "--max-n", "6"]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    span_file = tmp_path / "spans"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(span_file), *argv],
        capture_output=True, env=env, timeout=60,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "ivpoly", *argv], capture_output=True, env=env, timeout=60
    )
    assert (traced.returncode, traced.stdout, traced.stderr) == (plain.returncode, plain.stdout, plain.stderr)
    tree, tallies = spans.read(span_file)
    roots = [s for s in tree if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    assert sum(spans.self_times(tree)) == roots[0][2] - roots[0][1]
    layer = spans.op_layers(tree, tallies)
    assert layer["calls"]["verify.theorem2"] == 1
    assert layer["calls"]["verify.oracle"] == sum(k for k in range(8))  # k <= n <= 6
    assert (layer["builds"], layer["build_kinds"]) == (4, 4)
    assert tallies["triangles.entries"] > 0
