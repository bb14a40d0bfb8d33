"""Run one ivpoly CLI call with spans around the package's public functions.

    python bench/tracer.py SPAN_FILE ARG...

behaves like ``python -m ivpoly ARG...`` (same output, same exit code) and
writes the spans to SPAN_FILE when the call ends. Each listed function is
replaced by a timing wrapper in every ivpoly module namespace that holds it,
so calls between modules and inside one module are both seen. No ivpoly
source is changed.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time

import spans

# (module, attribute path, span name). Two entries may share a span name.
TRACED = [
    ("cli", "main", "cli.main"),
    ("stirling", "f_table", "stirling.f_table"),
    ("stirling", "d_table", "stirling.d_table"),
    ("stirling", "stirling_first", "stirling.stirling_first"),
    ("stirling", "f_direct", "stirling.f_direct"),
    ("stirling", "f_from_subsets", "stirling.f_from_subsets"),
    ("constants", "c_table", "constants.c_table"),
    ("constants", "q_table", "constants.q_table"),
    ("constants", "lambda_product", "constants.lambda_product"),
    ("constants", "q_direct", "constants.q_direct"),
    ("exact_arith", "lcm_list", "exact_arith.lcm_list"),
    ("exact_arith", "lcm_range", "exact_arith.lcm_range"),
    ("exact_arith", "primes_up_to", "exact_arith.primes_up_to"),
    ("exact_arith", "is_prime", "exact_arith.is_prime"),
    ("exact_arith", "vp_int", "exact_arith.vp_int"),
    ("verify", "minimal_multiplier_oracle", "verify.oracle"),
    ("verify", "check_corollary1", "verify.corollary1"),
    ("verify", "check_lemma1", "verify.lemma1"),
    ("verify", "check_lemma2", "verify.lemma2"),
    ("verify", "check_lemma3", "verify.lemma3"),
    ("verify", "cross_check_f", "verify.proposition1"),
    ("verify", "check_proposition2", "verify.proposition2"),
    ("verify", "check_theorem1", "verify.theorem1"),
    ("verify", "check_theorem2", "verify.theorem2"),
    ("verify", "check_theorem3", "verify.theorem3"),
    ("verify", "check_theorem4", "verify.theorem4"),
    ("binomial_poly", "BinomialPoly.derivative", "binomial_poly.derivative"),
    ("binomial_poly", "MonomialPoly.derivative", "binomial_poly.derivative"),
    ("binomial_poly", "BinomialPoly.to_monomial", "binomial_poly.to_monomial"),
    ("binomial_poly", "MonomialPoly.to_binomial", "binomial_poly.to_binomial"),
    ("binomial_poly", "from_values", "binomial_poly.from_values"),
    ("binomial_poly", "BinomialPoly.eval_int", "binomial_poly.eval_int"),
]
# Triangle constructors get a span and add their entry count to a tally.
TRIANGLES = ("StirlingTable", "RationalTriangle", "IntegerTriangle")


class Recorder:
    """Spans as flat int64 quads (name id, start, end, parent) plus tallies."""

    def __init__(self):
        self.names: list[str] = []
        self.flat = array.array("q")
        self.current = -1
        self.tallies = {"stirling.compositions_items": 0, "triangles.entries": 0}
        self.in_compositions = False

    def span(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        flat, clock = self.flat, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = len(flat) >> 2, self.current
            flat.extend((name_id, 0, 0, parent))
            self.current = index
            flat[4 * index + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                flat[4 * index + 2] = clock()
                self.current = parent

        return wrapper

    def triangle_init(self, init):
        traced = self.span(init, "triangles.construct")

        @functools.wraps(init)
        def wrapper(table, *args, **kwargs):
            traced(table, *args, **kwargs)
            self.tallies["triangles.entries"] += sum(len(row) for row in table.rows)

        return wrapper

    def compositions(self, fn):
        """Count the tuples an outermost compositions() call yields; the
        recursion inside it resolves to this wrapper too and is not counted."""

        @functools.wraps(fn)
        def wrapper(total, parts):
            if self.in_compositions:
                yield from fn(total, parts)
                return
            self.in_compositions = True
            try:
                for item in fn(total, parts):
                    self.tallies["stirling.compositions_items"] += 1
                    yield item
            finally:
                self.in_compositions = False

        return wrapper


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "ivpoly" or name.startswith("ivpoly."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    for module_name, path, span_name in TRACED:
        owner = importlib.import_module(f"ivpoly.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = recorder.span(original, span_name)
        if outer:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
    triangles = importlib.import_module("ivpoly.triangles")
    for cls_name in TRIANGLES:
        cls = getattr(triangles, cls_name)
        cls.__init__ = recorder.triangle_init(cls.__init__)
    stirling = importlib.import_module("ivpoly.stirling")
    original = stirling.compositions
    _replace_everywhere(original, recorder.compositions(original))


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    import ivpoly.cli

    recorder = Recorder()
    install(recorder)
    try:
        return ivpoly.cli.main(argv)
    finally:
        sys.stdout.flush()
        spans.write(span_file, recorder.names, recorder.flat, recorder.tallies)


if __name__ == "__main__":
    sys.exit(main())
