"""Reference computations that production code no longer runs, kept as
oracles for the fast paths."""

from typing import Iterable

from vknot.surface import LoopNotOnSurface, MapHomology


def cycle_coords(h: MapHomology, darts: Iterable[int]) -> tuple[int, ...]:
    """Coordinates of a closed dart walk in the loop-edge basis of `h`, edge
    by edge from the tree-cotree relations (the class `loop_homology` reads
    from its per-dart symplectic table)."""
    m = h.map
    darts = list(darts)
    coords = [0] * len(h.loop_edges)
    prev = darts[-1] if darts else None
    for d in darts:
        if not 0 <= d < m.n_darts:
            raise LoopNotOnSurface(f"dart {d} not on the surface")
        if prev is not None and m.vertex_of[d] != m.vertex_of[m.alpha[prev]]:
            raise LoopNotOnSurface("dart sequence is not a closed walk")
        prev = d
        s = 1 if d < m.alpha[d] else -1
        for k, v in h._edge_coords[m.edge_of[d]].items():
            coords[k] += s * v
    return tuple(coords)
