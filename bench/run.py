"""The ivpoly benchmark: one closed-loop client driving the real CLI.

    python3 bench/run.py --workload table-c --seed 1 --seconds 30 --trace 0

Each op is a fresh ``python -m ivpoly ...`` process, run one at a time; its
output is checked (checks.py) before it counts as a success. With --trace 0
the last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 every op of the first block runs once under tracer.py and once
plain, and the object holds the per-layer metrics. A record of the run
(interpreter, nproc, commit, seed, load, and every op's argv, timing and
stdout sha256) goes to .bench_runs/ in the checkout. README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 9
RUN_LIMIT_S = 170  # every op is killed before the run as a whole passes this


class SetupError(RuntimeError):
    """The program under test cannot be started; no result is printed."""


@dataclass
class OpResult:
    rc: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    out: bytes
    err: bytes


class Runner:
    """Hands ops one at a time to launcher.py and reads back their output."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        env = {k: v for k, v in os.environ.items() if k != "IVPOLY_ENUM_CAP"}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def run(self, cmd: list[str]) -> OpResult:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        request = {"cmd": cmd, "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SetupError("the op launcher exited")
        return OpResult(**json.loads(reply), out=out_path.read_bytes(), err=err_path.read_bytes())

    def ivpoly(self, argv) -> OpResult:
        return self.run([sys.executable, "-m", "ivpoly", *argv])

    def traced(self, argv, span_file: Path) -> OpResult:
        return self.run([sys.executable, str(BENCH / "tracer.py"), str(span_file), *argv])

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.launcher.terminate()  # the launcher kills its op on the way out
            self.launcher.wait()


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(runner: Runner) -> float:
    """Median wall time of a fresh ``python -m ivpoly --help``."""
    times = []
    for i in range(SETUP_RUNS + 1):
        result = runner.ivpoly(["--help"])
        if result.rc != 0 or not result.out.startswith(b"usage: ivpoly"):
            raise SetupError(f"`python -m ivpoly --help` failed: {result.err.decode(errors='replace')[-500:]}")
        if i:  # the first run warms the file cache and writes bytecode
            times.append(result.wall_s)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten values above
    it (nearest rank), and that percentile; the maximum when there are not
    more than ten values."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100
    pct = (100 * (len(ordered) - 10)) // len(ordered)
    return ordered[math.ceil(pct * len(ordered) / 100) - 1], pct


def _record(op: workloads.Op, block: int, result: OpResult, ref: checks.Reference | None) -> dict:
    """The op's line in the run record; its output is checked unless ``ref`` is None."""
    entry = {
        "block": block,
        "argv": list(op.argv),
        "rc": result.rc,
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "rss_kb": result.rss_kb,
        "sha256": hashlib.sha256(result.out).hexdigest(),
        "error": None,
    }
    if ref is not None:
        try:
            checks.check_op(op, result.rc, result.out, result.err, ref)
        except checks.CheckFailed as error:
            entry["error"] = str(error)
    return entry


def run_plain(runner: Runner, workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], dict]:
    """End-to-end mode: whole blocks until the deadline; the first always ends."""
    ref = checks.Reference()
    records: list[dict] = []
    blocks: list[list[dict]] = []
    index = 0
    while index == 0 or time.monotonic() < deadline:
        done = []
        for op in workloads.block(workload, seed, index):
            if index and time.monotonic() >= deadline:
                break
            done.append(_record(op, index, runner.ivpoly(op.argv), ref))
        else:
            blocks.append(done)
        records.extend(done)
        index += 1
    walls = [r["wall_s"] for r in records]
    failed = sum(r["error"] is not None for r in records)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(sum(r["wall_s"] for r in b) for b in blocks),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in b) for b in blocks),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "ok_ratio": (len(records) - failed) / len(records),
    }
    info = {"blocks": len(blocks), "ops": len(records), "tail_percentile": tail_pct}
    return metrics, records, info


def run_traced(runner: Runner, workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], dict]:
    """Trace mode: block 0 repeated until the deadline, each op traced then plain."""
    ref = checks.Reference()
    ops = workloads.block(workload, seed, 0)
    span_file = runner.workdir / "spans"
    records: list[dict] = []
    repeats: list[dict] = []
    overheads: list[float] = []
    while not repeats or time.monotonic() < deadline:
        layers, out_bytes, overhead = [], 0, 0.0
        for op in ops:
            span_file.unlink(missing_ok=True)
            traced = runner.traced(op.argv, span_file)
            entry = {**_record(op, len(repeats), traced, ref), "traced": True}
            layer = spans.op_layers(*spans.read(span_file)) if span_file.exists() else None
            if layer is None:
                entry["error"] = entry["error"] or "the tracer wrote no spans"
                layer = spans.op_layers([], {})
            elif layer["root_ns"] > traced.wall_s * 1e9:
                entry["error"] = entry["error"] or "summed self time exceeds the op's wall time"
            plain = runner.ivpoly(op.argv)
            plain_entry = {**_record(op, len(repeats), plain, None), "traced": False}
            if (plain.rc, plain.out, plain.err) != (traced.rc, traced.out, traced.err):
                plain_entry["error"] = "untraced output differs from traced output"
            records += [entry, plain_entry]
            layers.append(layer)
            out_bytes += len(traced.out)
            overhead += traced.wall_s - plain.wall_s
        repeats.append(spans.block_metrics(layers, out_bytes))
        overheads.append(overhead)
    first = repeats[0]
    unsteady = sorted({n for r in repeats[1:] for n in spans.COUNTS if r[n] != first[n]})
    metrics = {
        name: first[name] if name in spans.COUNTS else statistics.median(r[name] for r in repeats)
        for name in first
    }
    metrics["trace.overhead_s"] = statistics.median(overheads)
    info = {"repeats": len(repeats), "ops": len(records), "counts_changed": unsteady}
    return metrics, records, info


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    started = time.monotonic()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "loadavg_at_start": os.getloadavg(),
    }
    runs = ROOT / ".bench_runs"
    workdir = runs / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not (ROOT / "src" / "ivpoly" / "cli.py").is_file():
            raise SetupError(f"no ivpoly sources under {ROOT / 'src'}")
        runner = Runner(workdir, started)
        try:
            setup_s = measure_setup(runner)
            deadline = time.monotonic() + args.seconds
            mode = run_traced if args.trace else run_plain
            metrics, records, info = mode(runner, args.workload, args.seed, deadline)
        finally:
            runner.close()
    except SetupError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {"setup_s": setup_s, **metrics}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(units) ^ set(metrics))} are not both declared and measured",
              file=sys.stderr)
        return 2
    failed = sum(r["error"] is not None for r in records)
    record = {**meta, **info, "setup_s": setup_s, "metrics": metrics, "ops": records}
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for r in records:
        if r["error"] is not None:
            print(f"bench: FAILED {' '.join(r['argv'])}: {r['error']}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {info}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not info.get("counts_changed"),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
