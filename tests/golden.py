"""Frozen reference values for the published triangles and sequence, and
replaced code kept as a test oracle for its replacement."""

# Triangle of the minimal k-th-derivative multipliers c(n, k), rows n = 0..10.
GOLDEN_C = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 1, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 4, 1, 1],
    [1, 60, 180, 8, 6, 2, 1],
    [1, 420, 180, 120, 6, 6, 1, 1],
    [1, 840, 5040, 240, 240, 6, 4, 2, 1],
    [1, 2520, 5040, 15120, 240, 144, 4, 12, 1, 1],
    [1, 2520, 25200, 30240, 15120, 288, 240, 24, 3, 2, 1],
]

# Triangle of the composition-product lcms q(n, k), rows n = 0..10.
GOLDEN_Q = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 2, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 12, 2, 1],
    [1, 60, 360, 24, 12, 2, 1],
    [1, 420, 360, 360, 24, 12, 2, 1],
    [1, 840, 5040, 720, 720, 24, 12, 2, 1],
    [1, 2520, 5040, 15120, 720, 720, 24, 12, 2, 1],
    [1, 2520, 25200, 30240, 30240, 1440, 720, 24, 12, 2, 1],
]

# lambda(n) for n = 0..10.
GOLDEN_LAMBDA = [1, 1, 2, 6, 12, 60, 360, 2520, 5040, 15120, 151200]


def compositions_recursive(total, parts):
    """The recursive composition walk that ``stirling.compositions`` replaced:
    first part ascending, then every composition of the rest."""
    if parts < 0 or total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions_recursive(total - first, parts - 1):
            yield (first,) + rest
