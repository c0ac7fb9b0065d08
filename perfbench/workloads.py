"""Workload definitions: the seeded Gauss-code generator, the op pools, and
the seeded block schedule that a run executes.

An op is an argv list for `vknot.cli.main` with the state count of its
input.  Every workload is a list of strata; a stratum is a pool of
interchangeable ops of one shape (same command, crossing count and
component count) and the number of its ops a block takes.  A run walks each
pool in its own seeded order, without replacement until the pool is used
up, and runs every block in a seeded order.  Runs execute whole blocks, so
every run has the same mix of shapes and the op-latency median does not
jump with how far the last block got.  Where a block takes two ops of a
stratum, that puts the op median inside one size cluster rather than at the
edge between two, where it would move with which inputs a seed drew.

The random strata are drawn from fixed pools rather than straight from the
run seed, so that every op any seed can schedule has a reference output in
`reference.json` (built by `make_reference.py`) and is byte-checked.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 1

#: Random diagrams generated per stratum.  A 20 s run draws 4 to 7 blocks,
#: so it uses between a quarter and two thirds of each pool; seeds overlap
#: in part but schedule different inputs.
POOL_SIZE = 16

# catalog entry -> classical crossing count, for the states of each op.
CATALOG = {
    "unknot": 0,
    "unlink": 0,
    "kink": 1,
    "trefoil": 3,
    "figure_eight": 4,
    "hopf": 2,
    "virtual_trefoil": 2,
    "kishino": 4,
    "modified_kishino": 6,
    "linkL": 4,
    "section5_knot": 7,
}
#: (argv, states): states is the 2^n of the input diagram for ops that run a
#: state sum and 0 for `genus`; states_per_s sums it as equivalent work.
Op = tuple[list[str], int]
#: (pool, ops per block)
Stratum = tuple[list[Op], int]

WITH_CROSSING = ("kink", "trefoil", "figure_eight", "hopf", "virtual_trefoil", "linkL")
SECTION5_TANGLE = "B1U2+U7-U6+B3;B5U4+O5+B6;B8O2+B2;B4O4+U5+O6+O7-B7"
SECTION5_TANGLE_CROSSINGS = 5

def gauss_code(rng: random.Random, n_crossings: int, n_components: int) -> str:
    """A valid signed Gauss code with random pairing, O/U roles and signs.

    The 2n passes (one Over and one Under per crossing) are shuffled into
    one cyclic word, which is cut into `n_components` non-empty words.
    Crossings are numbered by first visit, as a user would write them.
    """
    passes = [(c, role) for c in range(n_crossings) for role in "OU"]
    rng.shuffle(passes)
    signs = [rng.choice("+-") for _ in range(n_crossings)]
    cuts = sorted(rng.sample(range(1, 2 * n_crossings), n_components - 1))
    label: dict[int, int] = {}
    words = []
    for a, b in zip([0] + cuts, cuts + [2 * n_crossings]):
        word = []
        for c, role in passes[a:b]:
            label.setdefault(c, len(label) + 1)
            word.append(f"{role}{label[c]}{signs[c]}")
        words.append("".join(word))
    return ";".join(words)


def _random_strata(workload: str, command: str, per_block: dict[int, int]) -> list[Stratum]:
    """Strata of 1- and 2-component codes of each crossing count n, with
    per_block[n] ops of each in a block."""
    return [
        (
            [
                ([command, gauss_code(random.Random(f"{workload}/{n}/{k}/{i}"), n, k), "--format", "json"], 1 << n)
                for i in range(POOL_SIZE)
            ],
            per_block[n],
        )
        for n in per_block
        for k in (1, 2)
    ]


def _family_op(command: str, k: int) -> Op:
    # catalog_p_family(k) has 6 + 2k crossings
    return [command, "--catalog", "p_family", "--n", str(k), "--format", "json"], 1 << (6 + 2 * k)


def _catalog() -> list[Stratum]:
    ops = []
    for name, n in CATALOG.items():
        ops.append((["genus", "--catalog", name], 0))
        for cmd in ("bracket", "certify", "surface-bracket"):
            ops.append(([cmd, "--catalog", name, "--format", "json"], 1 << n))
    for name in WITH_CROSSING:
        ops.append((["virtualize-report", "--catalog", name, "--format", "json"], 1 << CATALOG[name]))
    ops.append((["double-virtualize-report", "--catalog", "section5_knot", "--format", "json"], 1 << CATALOG["section5_knot"]))
    ops.append((["tangle-expand", SECTION5_TANGLE, "--format", "json"], 1 << SECTION5_TANGLE_CROSSINGS))
    return [([op], 1) for op in ops]


POOLS = {
    # n=2 puts the op median inside the n=3 cluster instead of between two
    "family_certify": lambda: [([_family_op("certify", k)], 1) for k in (2, 3, 4)],
    "random_certify": lambda: _random_strata("random_certify", "certify", {9: 1, 10: 1, 11: 1}),
    # median among the 15-crossing ops, tail among the 16-crossing
    "planar_jones": lambda: _random_strata("planar_jones", "jones", {14: 2, 15: 2, 16: 1})
    + [([_family_op("jones", 5)], 1)],
    "catalog_reports": _catalog,
}


def all_ops(workload: str) -> list[Op]:
    """Every op any seed can schedule for the workload."""
    return [op for pool, _ in POOLS[workload]() for op in pool]


def blocks(workload: str, seed: int):
    """Endless seeded sequence of blocks of ops."""
    strata = POOLS[workload]()
    rng = random.Random(f"{workload}/run/{seed}")
    walks = [(itertools.cycle(rng.sample(pool, len(pool))), per_block) for pool, per_block in strata]
    while True:
        block = [next(walk) for walk, per_block in walks for _ in range(per_block)]
        rng.shuffle(block)
        yield block
