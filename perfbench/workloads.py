"""Workload definitions and seeded inputs for the gridspin benchmark.

Grids come from the benchmark's own generator (SplitMix64 plus a
Fisher-Yates shuffle), never from ``gridspin.grid.random_grid``, so a
change to the program cannot change the workload.

Each workload draws its operations from a fixed pool: the first ``pool``
grids of size n generated from ``DEFAULT_SEED`` (one-component grids only,
for a knots-only workload).  The stdout of every pool operation at the
seed commit is stored under ``reference/``, so every operation of every
run is compared byte for byte.  ``--seed`` picks the order in which a run
walks the pool (``run_order``); a run that exhausts the pool starts over
in the same order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

DEFAULT_SEED = 0
_MASK = (1 << 64) - 1


class SplitMix64:
    """Small deterministic 64-bit generator (Steele, Lea and Flood 2014)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform integer in [0, k), by rejection."""
        limit = (1 << 64) - (1 << 64) % k
        while True:
            v = self.next64()
            if v < limit:
                return v % k

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class Grid:
    n: int
    o_rows: tuple[int, ...]
    x_rows: tuple[int, ...]

    def text(self) -> str:
        """The grid in the file format ``gridspin`` reads."""
        return (
            f"n {self.n}\n"
            f"O {' '.join(map(str, self.o_rows))}\n"
            f"X {' '.join(map(str, self.x_rows))}\n"
        )


def grid_stream(n: int, seed: int = DEFAULT_SEED) -> Iterator[Grid]:
    """Random grids of size n for ``seed``: a uniform O permutation, then
    X permutations redrawn until no cell is shared."""
    rng = SplitMix64((seed << 8) | n)
    while True:
        o = list(range(n))
        rng.shuffle(o)
        while True:
            x = list(range(n))
            rng.shuffle(x)
            if all(a != b for a, b in zip(o, x)):
                break
        yield Grid(n, tuple(o), tuple(x))


def components(n: int, o_rows, x_rows) -> tuple[list[int], list[int], list[int]]:
    """(component of the O in each column, of the X in each column, rows
    per component); components are numbered from 1 in the order of the
    leftmost column holding one of their O markers."""
    x_col_of_row = [0] * n
    for c, r in enumerate(x_rows):
        x_col_of_row[r] = c
    cycle_of_row = [0] * n
    cycles = 0
    for start in range(n):
        if cycle_of_row[start]:
            continue
        cycles += 1
        r = start
        while not cycle_of_row[r]:
            cycle_of_row[r] = cycles
            r = o_rows[x_col_of_row[r]]  # along the row to X, down the column to O
    first_col: dict[int, int] = {}
    for c in range(n):
        first_col.setdefault(cycle_of_row[o_rows[c]], c)
    number = {cyc: k + 1 for k, cyc in enumerate(sorted(first_col, key=first_col.get))}
    comp_of_row = [number[cyc] for cyc in cycle_of_row]
    comp_o = [comp_of_row[o_rows[c]] for c in range(n)]
    comp_x = [comp_of_row[x_rows[c]] for c in range(n)]
    n_i = [comp_of_row.count(j) for j in range(1, cycles + 1)]
    return comp_o, comp_x, n_i


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    pool: int
    command: tuple[str, ...]  # CLI arguments; "{grid}" stands for the grid file
    kind: str  # "homology" or "check": selects the output check
    knots_only: bool = False

    def argv(self, grid_path: str) -> list[str]:
        return [grid_path if a == "{grid}" else a for a in self.command]

    def grids(self) -> list[Grid]:
        """The pool: the first grids of the stream for the default seed,
        knots only when the workload says so."""
        stream = grid_stream(self.n)
        if self.knots_only:
            stream = (g for g in stream if len(components(g.n, g.o_rows, g.x_rows)[2]) == 1)
        return list(itertools.islice(stream, self.pool))


_HAT = ("homology", "{grid}", "--flavor", "hat", "--json")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("homology-n6", 6, 48, _HAT, "homology"),
        Workload("homology-n7", 7, 4, _HAT, "homology", knots_only=True),
        Workload("check-n6", 6, 5, ("check", "{grid}"), "check"),
    )
}


def run_order(pool_size: int, seed: int) -> list[int]:
    """The order in which a run with ``seed`` walks a pool."""
    order = list(range(pool_size))
    SplitMix64(seed ^ 0x5EED).shuffle(order)
    return order


def write_grids(directory, grids: list[Grid]) -> list[str]:
    """Write each grid to its own file; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, g in enumerate(grids):
        path = directory / f"g{g.n}_{i:04d}.grid"
        path.write_text(g.text())
        paths.append(str(path))
    return paths
