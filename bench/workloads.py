"""Seeded op lists for the four workloads.

An op is one CLI call: the argv after ``python -m ivpoly`` and the exit code
it must end with. A workload is an endless sequence of blocks. Block ``i`` of
seed ``s`` depends only on ``(workload, s, i)``, never on how many blocks a
run completed before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("table-c", "table-q", "seq", "verify")
FORMATS = ("md", "csv", "json")
CHECK_NAMES = (
    "corollary1",
    "lemma1",
    "lemma2",
    "lemma3",
    "proposition1",
    "proposition2",
    "theorem1",
    "theorem2",
    "theorem3",
    "theorem4",
)

# Inclusive --max-n ranges for single-check verify scopes. The oracle-backed
# checks stop at its cap (14); theorem3 stays at 12 or below only to keep a
# block short, since its witness loop has no cap (46 s at 16).
# theorem3 costs about 0.35, 0.65 and 1.5 s at 10, 11 and 12, enough to
# split block times into three clusters. So it steps through its range one
# block at a time from a start set by the seed. Any run of blocks then holds
# each size equally often (within one), and the median block lands in the
# middle cluster.
VERIFY_RANGES = {
    "corollary1": (64, 400),
    "lemma1": (16, 40),
    "lemma2": (2_000, 10_000),
    "lemma3": (30, 90),
    "proposition1": (10, 14),
    "proposition2": (10, 16),
    "theorem1": (8, 14),
    "theorem2": (8, 14),
    "theorem3": (10, 12),
    "theorem4": (8, 14),
}

# Scopes that must stop with exit code 3 at the multiplier-oracle cap of 14.
# ``all`` is held at 15 because proposition1 runs before the oracle check and
# its enumeration doubles with every step above that.
CAP_SCOPES = (("theorem2", 15, 17), ("theorem4", 15, 17), ("all", 15, 15))

# Plain ``seq lambda`` prints lambda(n) as a decimal integer, which Python
# refuses above 4300 digits (n >= 1730); see README.md, "Known gaps".
PLAIN_LAMBDA_MAX_N = 1700


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect_rc: int = 0


def _spread(workload: str, seed: int, index: int, count: int, strata: int) -> list[float]:
    """``count`` draws in [0, 1) for block ``index``.

    Blocks come in cycles of ``strata``. Within a cycle each draw position
    visits every 1/strata slice of [0, 1) once, in a seeded order (a Latin
    hypercube), so the sizes a run covers, and so its per-op timings, hardly
    depend on the seed.
    """
    cycle, slot = divmod(index, strata)
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    draws = []
    for _ in range(count):
        order = rng.sample(range(strata), strata)
        offsets = [rng.random() for _ in range(strata)]
        draws.append((order[slot] + offsets[slot]) / strata)
    return draws


def _pair(u: float, lo: int, hi: int) -> tuple[int, int]:
    """Antithetic sizes: one in the lower half of [lo, hi], its mirror image
    in the upper half. The pair's summed cost varies far less than either."""
    step = round(u * (hi - lo) / 2)
    return lo + step, hi - step


def _table_c(draws: list[float], index: int, seed: int) -> list[Op]:
    ops = []
    for kind, u in zip(("F", "d", "c", "stirling"), draws):
        for n in _pair(u, 120, 240):
            fmt = FORMATS[(len(ops) + index) % len(FORMATS)]
            ops.append(Op(("table", kind, "--max-n", str(n), "--format", fmt)))
    return ops


def _table_q(draws: list[float], index: int, seed: int) -> list[Op]:
    sizes = [*_pair(draws[0], 100, 150), *_pair(draws[1], 150, 200)]
    return [
        Op(("table", "q", "--max-n", str(n), "--format", FORMATS[(i + index) % len(FORMATS)]))
        for i, n in enumerate(sizes)
    ]


def _seq(draws: list[float], index: int, seed: int) -> list[Op]:
    plans = [
        (("cn",), 1000, 2500),
        (("lambda", "--factored"), 1000, 2500),
        (("lambda",), 1000, PLAIN_LAMBDA_MAX_N),
    ]
    ops = []
    for (args, lo, hi), u in zip(plans, draws):
        for n in _pair(u, lo, hi):
            fmt = FORMATS[(len(ops) + index) % len(FORMATS)]
            ops.append(Op(("seq", *args, "--max-n", str(n), "--format", fmt)))
    return ops


def _verify(draws: list[float], index: int, seed: int) -> list[Op]:
    def size(u: float, lo: int, hi: int) -> str:
        return str(lo + int(u * (hi - lo + 1)))

    ops = [Op(("verify", "all"))]
    for name, u in zip(CHECK_NAMES, draws):
        lo, hi = VERIFY_RANGES[name]
        if name == "theorem3":
            u = ((seed + index) % (hi - lo + 1) + 0.5) / (hi - lo + 1)
        ops.append(Op(("verify", name, "--max-n", size(u, lo, hi))))
    ops.append(Op(("verify", "theorem1", "--max-n", size(draws[-2], 15, 17)), expect_rc=3))
    scope, lo, hi = CAP_SCOPES[index % len(CAP_SCOPES)]
    ops.append(Op(("verify", scope, "--max-n", size(draws[-1], lo, hi)), expect_rc=3))
    return ops


# Builder, the number of draws it takes per block, and the blocks per
# Latin-hypercube cycle: about as many as a 30-second run completes.
_BUILDERS = {
    "table-c": (_table_c, 4, 8),
    "table-q": (_table_q, 2, 9),
    "seq": (_seq, 3, 5),
    "verify": (_verify, len(CHECK_NAMES) + 2, 8),
}


def block(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of block ``index`` of ``workload`` under ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    build, count, strata = _BUILDERS[workload]
    return build(_spread(workload, seed, index, count, strata), index, seed)
