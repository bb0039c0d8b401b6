"""The machine's momentary speed, read from a fixed reference loop.

On a shared host the speed of one vCPU swings by up to a factor of two
within seconds (other tenants contend for the core, its caches and its
memory bandwidth), and CPU time tracks wall time, so neither clock can
separate the program's cost from the host's load.  The benchmark therefore
runs `reference()`, a fixed ~1 ms loop of the same kind of work as the
program (dict lookups, small-int arithmetic, tuples, calls), right before
every job, and scales each job's time by

    (NOMINAL_S / median(reference times in the window around it)) ** EXPONENT

so that a time reads as it would on a machine running at the nominal speed.
Set-up starts run between passes and take the median factor of the pass
that follows them (readings in the parent around a start track it worse).
The loop is part of the benchmark, not of the program: a program change
cannot move it, and it must never be edited, or scaled times stop being
comparable across commits.  The raw times stay in every result file.
"""

from __future__ import annotations

import statistics
import time

# median time of reference() on a 2-vCPU Xeon (Python 3.11) over a few
# minutes; it only fixes the scale on which times are reported
NOMINAL_S = 0.0011
# a job's time moves with the reference time to about this power: the loop's
# small working set makes it more sensitive to a busy core than the program.
# Exponents 0.7-0.8 gave the least pass-to-pass variation of scaled batch time
# on all four workloads (five seeds each; 1.0 left 3-5 %, 0.75 left 2-4 %).
EXPONENT = 0.75
# reference readings on each side of a job that set its scale factor
WINDOW = 5


def _step(table: dict, key: int, acc: int) -> int:
    value = table.get(key, 0) + (acc * 31 + key) % 257
    table[key] = value
    return value


def reference() -> float:
    """Run the reference loop once and return its wall time in seconds."""
    start = time.perf_counter()
    table: dict = {}
    acc = 1
    pairs = []
    for i in range(1600):
        key = (i * 7919) % 127
        acc = (acc * 3 + _step(table, key, acc)) % 65521
        pairs.append((key, acc & 255))
    acc += sum(k * v for k, v in pairs) % 7
    return time.perf_counter() - start


def factor(ref_s: list[float]) -> float:
    """Scale factor for a time taken among these reference readings."""
    return (NOMINAL_S / statistics.median(ref_s)) ** EXPONENT


def factors(ref_s: list[float], window: int = WINDOW) -> list[float]:
    """Scale factor for each index, from the readings in the window around it."""
    return [factor(ref_s[max(0, i - window):i + window + 1]) for i in range(len(ref_s))]
