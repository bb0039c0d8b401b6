"""Micro-benchmark of single `quasifix.gf` element operations.

Times each operation over a fixed list of seeded operand pairs in F_5,
F_{2^8} and F_{2^12} and reports nanoseconds per operation (loop overhead
included) as the median of several repeats.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# metric -> (p, m, operation)
CASES = {
    "gf.mul_ns.q5": (5, 1, "mul"),
    "gf.add_ns.q5": (5, 1, "add"),
    "gf.mul_ns.q256": (2, 8, "mul"),
    "gf.inv_ns.q256": (2, 8, "inv"),
    "gf.mul_ns.q4096": (2, 12, "mul"),
    "gf.inv_ns.q4096": (2, 12, "inv"),
    "gf.frobenius_ns.q4096": (2, 12, "frobenius"),
}
PAIRS = 500
REPEATS = 7


def _time_once(op: str, pairs) -> float:
    start = perf_counter()
    if op == "mul":
        for a, b in pairs:
            a * b
    elif op == "add":
        for a, b in pairs:
            a + b
    elif op == "inv":
        for a, _ in pairs:
            a.inv()
    else:
        for a, _ in pairs:
            a.frobenius(1)
    return perf_counter() - start


def run(seed: int) -> dict[str, float]:
    from quasifix.gf import field_create

    rng = random.Random(f"gf-micro:{seed}")
    out = {}
    for name, (p, m, op) in CASES.items():
        field = field_create(p, m)
        pairs = [(field.from_int(rng.randrange(1, field.order)),
                  field.from_int(rng.randrange(1, field.order))) for _ in range(PAIRS)]
        _time_once(op, pairs)  # warm-up
        samples = [_time_once(op, pairs) for _ in range(REPEATS)]
        out[name] = statistics.median(samples) / PAIRS * 1e9
    return out
