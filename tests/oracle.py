"""Reference computations that tests check the package against, and
helpers that only tests use.

- The surface: `CombinatorialMap`, the generic map of any dart
  permutations, which validates them and lays out the tables that
  `surface.RefinedMap` writes directly; `generic_map`, the Carter surface
  of a diagram as one; the union-find cut `cut_map`; the refined-map
  walks `state_curves`, `position_of` and `side_dart`; and the
  state-by-state surface sum `bracket_chunk`.
- Homology: `tree_parents`, the parent darts of the spanning tree of
  `surface.MapHomology`, which the package does not keep and which are
  rebuilt here by its rule; `fundamental_cycles` and
  `one_vertex_rotations`, which walk that tree; `cycle_coords`,
  `dense_dart_vec`, `rotation_form` and `intersection_number`.
- Skew forms: `det_int` and its reference `det_fraction`,
  `standard_form`, `pair`, `is_unimodular` and `check_standard`.
- State sums: `expand` and `packed`, which put counts in the value format
  of the sums; `crossing_pair`, `borrowed_fields` and `unpack`;
  `crossing_order`, which sweeps in another order than the greedy one;
  `greedy_order`, its naive reference; and `min_growth_order`, the greedy
  order without its lookahead.
- Tangles and Jones: `is_noncrossing`, `jones_divisibility` and
  `try_divide_exact`, exact Laurent division that gives None where the
  package raises.
- Diagrams: `canonical_code` and the removal moves.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from operator import eq
from typing import Iterable, Iterator, Sequence

from vknot import frontier
from vknot.analysis import CurveClassKey
from vknot.bracket import StateTables, d_power
from vknot.diagram import OVER, UNDER, VirtualLinkDiagram, arc_ends
from vknot.frontier import PackedFields
from vknot.laurent import IndivisibleError, LaurentPoly, laurent_divide_exact
from vknot.surface import (
    HomologyClass,
    LoopNotEmbedded,
    LoopNotOnSurface,
    MapHomology,
    SurfaceRep,
    _orbit_of,
    _orbits,
    is_disk_bounding,
    loop_homology,
)
from vknot.symplectic import SkewForm, SymplecticBasis
from vknot.tangle import Matching


class CombinatorialMap:
    """An orientable surface as dart permutations.

    `sigma` rotates the darts counterclockwise around their vertex,
    `alpha` is the fixed-point-free edge involution.  Vertices, edges and
    faces are the orbits of sigma, alpha and phi = sigma o alpha; each
    connected component contributes 2 - 2*genus to chi = V - E + F.  Every
    table is built once, with the map: the orbits, each from its smallest
    dart, in order of that dart, each dart's vertex, edge and face index
    (`vertex_of`, `edge_of`, `face_of`), the components as sorted tuples of
    vertex indices, in order of the smallest, and the chi of each vertex's
    component (`chi_of_vertex`).  The reference for `surface.RefinedMap`,
    which writes these tables directly.
    """

    __slots__ = (
        "n_darts", "sigma", "alpha", "vertices", "edges", "faces",
        "vertex_of", "edge_of", "face_of", "components", "chi_of_vertex",
    )

    def __init__(self, sigma: Sequence[int], alpha: Sequence[int]):
        self.n_darts = n = len(sigma)
        self.sigma = sigma = tuple(sigma)
        self.alpha = alpha = tuple(alpha)
        if len(alpha) != n:
            raise ValueError("sigma and alpha must act on the same darts")
        darts = list(range(n))
        if any(map(eq, alpha, darts)) or list(map(alpha.__getitem__, alpha)) != darts:
            raise ValueError("alpha must be a fixed-point-free involution")
        if sorted(sigma) != darts:
            raise ValueError("sigma must be a permutation of the darts")
        self.vertices = vertices = _orbits(sigma)
        self.edges = tuple([(d, e) for d, e in enumerate(alpha) if d < e])
        self.faces = _orbits([sigma[a] for a in alpha])
        self.vertex_of = vertex_of = _orbit_of(vertices, n)
        self.edge_of = _orbit_of(self.edges, n)
        self.face_of = _orbit_of(self.faces, n)
        # components by search over vertices, each from its smallest vertex
        comp_of = [-1] * len(vertices)
        components = []
        for root in range(len(vertices)):
            if comp_of[root] >= 0:
                continue
            c = comp_of[root] = len(components)
            comp = [root]
            for v in comp:
                for d in vertices[v]:
                    w = vertex_of[alpha[d]]
                    if comp_of[w] < 0:
                        comp_of[w] = c
                        comp.append(w)
            components.append(tuple(sorted(comp)))
        self.components = tuple(components)
        # chi = V + F - E per component, E being half its darts
        chi, comp_darts = [0] * len(components), [0] * len(components)
        for orbit in self.faces:
            chi[comp_of[vertex_of[orbit[0]]]] += 1
        for v, orbit in enumerate(vertices):
            chi[comp_of[v]] += 1
            comp_darts[comp_of[v]] += len(orbit)
        self.chi_of_vertex = tuple([chi[c] - comp_darts[c] // 2 for c in comp_of])

    def genus(self) -> int:
        """Total genus, summed over connected components."""
        total = 0
        for comp in self.components:
            chi = self.chi_of_vertex[comp[0]]
            if chi % 2:
                raise AssertionError("odd Euler characteristic on an orientable map")
            total += (2 - chi) // 2
        return total


def rotation_of(rep: SurfaceRep) -> list[tuple[int, int, int, int]]:
    """The counterclockwise rotation of each crossing of `rep`'s diagram, in
    id order, from `diagram.arc_ends` itself: the reference for the B-joins
    of `rep.tables` that the surface reads."""
    d = rep.diagram
    return arc_ends(d.arc_strands, d.signs)[1]


def generic_map(rep: SurfaceRep) -> CombinatorialMap:
    """The Carter surface of `rep` as a generic, validated `CombinatorialMap`
    of the same darts: sigma turns each arc end counterclockwise around its
    crossing (`rotation_of`) and alpha(e) = e ^ 1 runs along its arc."""
    n_ends = 2 * rep.tables.n_arcs
    sigma = list(range(n_ends))
    for cyc in rotation_of(rep):
        for k in range(4):
            sigma[cyc[k]] = cyc[(k + 1) % 4]
    return CombinatorialMap(sigma, [d ^ 1 for d in range(n_ends)])


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


def cut_map(m: CombinatorialMap, loop: Sequence[int]) -> list[tuple[int, int]]:
    """(Euler characteristic, boundary circles) per piece of `m` cut along an
    embedded loop, by union-find over the whole map: faces glued across
    non-cut edges, corners glued across non-cut darts (the reference for
    `surface._cut_map`)."""
    loop = list(loop)
    if not loop:
        raise LoopNotOnSurface("empty loop")
    prev = loop[-1]
    for d in loop:
        if m.vertex_of[d] != m.vertex_of[m.alpha[prev]]:
            raise LoopNotOnSurface("dart sequence is not a closed walk")
        prev = d
    loop_edges = [m.edge_of[d] for d in loop]
    cut = set(loop_edges)
    if len(cut) != len(loop_edges):
        raise LoopNotEmbedded("loop repeats an edge")

    n_faces = len(m.faces)
    parent = list(range(n_faces))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ei, (d, e) in enumerate(m.edges):
        if ei not in cut:
            a, b = find(m.face_of[d]), find(m.face_of[e])
            if a != b:
                parent[a] = b

    # restrict to faces reachable from the loop (other surface components untouched)
    touched = {find(m.face_of[d]) for d in loop} | {find(m.face_of[m.alpha[d]]) for d in loop}
    pieces = sorted(touched)
    piece_index = {p: i for i, p in enumerate(pieces)}

    faces_in = [0] * len(pieces)
    for fi in range(n_faces):
        r = find(fi)
        if r in piece_index:
            faces_in[piece_index[r]] += 1

    edges_in = [0] * len(pieces)
    for ei, (d, e) in enumerate(m.edges):
        if ei in cut:
            for dart in (d, e):
                r = find(m.face_of[dart])
                edges_in[piece_index[r]] += 1
        else:
            r = find(m.face_of[d])
            if r in piece_index:
                edges_in[piece_index[r]] += 1

    # corners: the sector between dart g and sigma(g) at vertex(g) belongs to
    # the face of sigma(g); adjacent sectors stay glued across non-cut darts.
    cparent = list(range(m.n_darts))

    def cfind(x: int) -> int:
        while cparent[x] != x:
            cparent[x] = cparent[cparent[x]]
            x = cparent[x]
        return x

    for g in range(m.n_darts):
        nxt = m.sigma[g]
        if m.edge_of[nxt] not in cut:
            a, b = cfind(g), cfind(nxt)
            if a != b:
                cparent[a] = b
    corner_class_piece: dict[int, int] = {}
    for g in range(m.n_darts):
        r = find(m.face_of[m.sigma[g]])
        if r in piece_index:
            corner_class_piece[cfind(g)] = piece_index[r]
    verts_in = [0] * len(pieces)
    for pi in corner_class_piece.values():
        verts_in[pi] += 1

    # the two sides of the loop each contribute one boundary circle
    boundaries = [0] * len(pieces)
    left = {find(m.face_of[d]) for d in loop}
    right = {find(m.face_of[m.alpha[d]]) for d in loop}
    if len(left) != 1 or len(right) != 1:
        raise LoopNotEmbedded("loop crosses itself at a vertex")
    boundaries[piece_index[left.pop()]] += 1
    boundaries[piece_index[right.pop()]] += 1

    return [
        (verts_in[i] - edges_in[i] + faces_in[i], boundaries[i]) for i in range(len(pieces))
    ]


def expand(counts: dict[tuple[int, int], int]) -> LaurentPoly:
    """sum n * A^c * d^k over the counts {(c, k): n}, multiplying out the
    cached d^k term by term for every (c, k)."""
    terms: dict[int, int] = {}
    for (c, k), count in counts.items():
        for e, coeff in d_power(k).terms:
            terms[e + c] = terms.get(e + c, 0) + count * coeff
    return LaurentPoly(terms)


def packed(counts: dict[tuple[int, int], int], fields: PackedFields) -> int:
    """The value a state sum laid out by `fields` (`StateTables.fields`)
    carries for the counts {(c, k): n}: `expand(counts)` packed term by
    term, the coefficient of A^e in field M + (n - e) / 2."""
    n, width, offset = fields
    return sum(c << width * (offset + (n - e) // 2) for e, c in expand(counts).terms)


def state_curves(rep: SurfaceRep, tables: StateTables, state: int) -> list[tuple[int, ...]]:
    """Refined-map dart cycles of one state, walked from the smoothing joins
    with `position_of` and `side_dart`, in the order of their first tail
    end (the reference for the darts of `analysis._CurveLabels`)."""
    partner = {}
    for k in range(tables.n):
        p, q, r, s = tables.joins[k][(state >> k) & 1]
        partner.update({p: q, q: p, r: s, s: r})
    position = position_of(rep)
    seen: set[int] = set()
    curves = []
    for start in range(0, 2 * tables.n_arcs, 2):
        if start in seen:
            continue
        darts = []
        end = start
        while end not in seen:
            seen.update((end, end ^ 1))
            nxt = partner[end ^ 1]
            ci, k_in = position[end ^ 1]
            cj, k_out = position[nxt]
            assert ci == cj
            darts += [end, side_dart(rep, ci, k_in, k_out)]
            end = nxt
        curves.append(tuple(darts))
    return curves


def bracket_chunk(rep: SurfaceRep) -> dict[CurveClassKey, int]:
    """The surface state sum over all 2^n states, walking every state in
    index order with `state_curves`, counted by (c, disks) per curve-class
    key and packed with `packed`, without the free loops (the reference for
    the frontier sweep of `analysis._bracket_sum`).  Each distinct curve, by
    its edge set, is classified once with `loop_homology` and the disk test,
    whatever its class."""
    tables = StateTables(rep.diagram)
    edge_of = rep.refined.edge_of
    kinds: dict[frozenset[int], tuple] = {}  # edge set -> (class, bounds a disk)
    counts: dict[CurveClassKey, dict[tuple[int, int], int]] = {}
    n = tables.n
    for state in range(1 << n):
        classes, null_essential, disks = [], 0, 0
        for curve in state_curves(rep, tables, state):
            edges = frozenset(edge_of[d] for d in curve)
            if edges not in kinds:
                kinds[edges] = (loop_homology(rep, curve), is_disk_bounding(rep, curve))
            cls, disk = kinds[edges]
            if disk:
                disks += 1
            elif cls.is_zero():
                null_essential += 1
            else:
                classes.append(cls)
        slot = counts.setdefault((tuple(sorted(classes)), null_essential), {})
        c = n - 2 * state.bit_count()
        slot[c, disks] = slot.get((c, disks), 0) + 1
    return {key: packed(key_counts, tables.fields) for key, key_counts in counts.items()}


def dense_dart_vec(h: MapHomology) -> list[tuple[tuple[int, int], ...] | None]:
    """Each dart's class in symplectic coordinates, as the nonzero
    (coordinate, value) pairs: its edge's loop-edge coordinates written out
    as a dense vector and taken through `SymplecticBasis.to_symplectic`, the
    partner dart negated (the reference for `MapHomology.dart_vec`)."""
    m = h.map
    dim = len(h.loop_edges)
    out: list[tuple[tuple[int, int], ...] | None] = [None] * m.n_darts
    for ei, (d, e) in enumerate(m.edges):
        coords = h._edge_coords[ei]
        if not coords:
            continue
        raw = [0] * dim
        for k, v in coords.items():
            raw[k] = v
        vec = tuple((k, v) for k, v in enumerate(h.basis.to_symplectic(raw)) if v)
        out[d] = vec
        out[e] = tuple((k, -v) for k, v in vec)
    return out


def tree_parents(h: MapHomology) -> dict[int, int]:
    """Vertex -> the dart from its parent in the spanning tree of `h`, for
    every vertex but the roots, rebuilt by the rule of
    `MapHomology._process_component`: breadth-first from the first vertex
    of each component over `m.vertices[v]`, each vertex reached by the first
    dart to it."""
    m = h.map
    parents: dict[int, int] = {}
    for comp in m.components:
        order = [comp[0]]
        seen = {comp[0]}
        for v in order:
            for d in m.vertices[v]:
                w = m.vertex_of[m.alpha[d]]
                if w not in seen:
                    seen.add(w)
                    parents[w] = d
                    order.append(w)
    return parents


def fundamental_cycles(h: MapHomology) -> list[tuple[int, ...]]:
    """One dart cycle per generator of `h`: the loop edge closed through the
    tree, from the component's root and back."""
    m = h.map
    parents = tree_parents(h)
    out = []
    for ei in h.loop_edges:
        p, q = m.edges[ei]
        u, v = m.vertex_of[p], m.vertex_of[q]
        back = [m.alpha[d] for d in reversed(_tree_path(h, parents, v))]
        out.append(tuple(_tree_path(h, parents, u) + [p] + back))
    return out


def _tree_path(h: MapHomology, parents: dict[int, int], v: int) -> list[int]:
    """Darts from the component root down to vertex v along the tree of `h`,
    whose `parents` are `tree_parents(h)`."""
    path = []
    while v in parents:
        d = parents[v]
        path.append(d)
        v = h.map.vertex_of[d]
    return list(reversed(path))


class BasisMismatch(ValueError):
    """Homology classes from different bases were combined."""


def intersection_number(c1: HomologyClass, c2: HomologyClass) -> int:
    """Symplectic pairing sum(a_k b'_k - b_k a'_k) in standard coordinates."""
    if len(c1.coords) != len(c2.coords):
        raise BasisMismatch("classes come from different bases")
    total = 0
    for k in range(0, len(c1.coords), 2):
        total += c1.coords[k] * c2.coords[k + 1] - c1.coords[k + 1] * c2.coords[k]
    return total


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Gaussian elimination).

    Bareiss elimination: after step k every entry of the trailing block is a
    (k+1)-minor of m, so each division by the previous pivot is exact and
    every value stays an int.  A zero pivot is replaced by swapping in a
    lower row, which negates the determinant.
    """
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - lead * row_k[c]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def standard_form(genus: int) -> SkewForm:
    """The block-diagonal form J with `genus` hyperbolic blocks."""
    dim = 2 * genus
    rows = [[0] * dim for _ in range(dim)]
    for k in range(genus):
        rows[2 * k][2 * k + 1] = 1
        rows[2 * k + 1][2 * k] = -1
    return SkewForm.from_rows(rows)


def pair(form: SkewForm, u: Sequence[int], v: Sequence[int]) -> int:
    """u^T . form . v."""
    return sum(u[i] * form.entries[i][j] * v[j] for i in range(form.dim) for j in range(form.dim))


def is_unimodular(form: SkewForm) -> bool:
    """The form's determinant is +-1."""
    return abs(det_int(form.entries)) == 1


def det_fraction(m: Sequence[Sequence[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals (the reference
    for `det_int`)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    if det.denominator != 1:
        raise ArithmeticError("integer matrix gave a fractional determinant")
    return int(det)


def check_standard(form: SkewForm, basis: SymplecticBasis) -> bool:
    """change^T . form . change == J, entry by entry as a quadruple sum (the
    reference for the check of `symplectic._certified_inverse`)."""
    n = form.dim
    std = standard_form(n // 2).entries
    c = basis.change
    for i in range(n):
        for j in range(n):
            val = sum(c[r][i] * form.entries[r][s] * c[s][j] for r in range(n) for s in range(n))
            if val != std[i][j]:
                return False
    return True


def crossing_pair(classes: Sequence[tuple[int, ...]], k: int) -> tuple | None:
    """(k + 1, c_i, c_j, a_i b_j - a_j b_i) for the first pair i < j, in
    lexicographic order, with a nonzero determinant in the k-th coordinate
    pair, trying every pair (the reference for `analysis._crossing_pairs`)."""
    for i, ci in enumerate(classes):
        for cj in classes[i + 1 :]:
            val = ci[2 * k] * cj[2 * k + 1] - cj[2 * k] * ci[2 * k + 1]
            if val:
                return (k + 1, ci, cj, val)
    return None


def borrowed_fields(total: int, count: int, width: int) -> tuple[int, ...]:
    """The `count` signed fields of `width` bits of `total`, lowest first,
    each read with a borrow from the rest (the reference for
    `frontier.SignedFields`)."""
    fields = []
    for _ in range(count):
        field = total & ((1 << width) - 1)
        if field >> (width - 1):
            field -= 1 << width
        fields.append(field)
        total = (total - field) >> width
    if total:
        raise ValueError("packed sum has bits beyond its last field")
    return tuple(fields)


def unpack(total: int, dim: int, width: int) -> tuple[int, ...]:
    """The `dim` signed coordinates of a packed class sum with fields of
    `width` bits, coordinate k in bits [(dim - 1 - k) * width, (dim - k) * width)
    (the inverse of `analysis._pack`)."""
    return borrowed_fields(total, dim, width)[::-1]


def one_vertex_rotations(h: MapHomology) -> list[list[int]]:
    """Per component of `h.map`, the darts of its loop edges in their cyclic
    order at the one vertex left when the tree edges of `h` are contracted
    and the rest, its cotree, deleted (the reference for the tree walk of
    `surface.MapHomology`).  Each tree edge is contracted by splicing the
    rotation of its far end into that of its near end in place of the
    edge's darts.  The edges go in order of their parent darts, not in BFS
    order: any order contracts to the same cyclic order."""
    m = h.map
    rot = {v: list(darts) for v, darts in enumerate(m.vertices)}
    vert = list(m.vertex_of)
    for p in sorted(tree_parents(h).values()):
        q = m.alpha[p]
        u, v = vert[p], vert[q]
        lu, lv = rot[u], rot.pop(v)
        i, j = lu.index(p), lv.index(q)
        rot[u] = lu[:i] + lv[j + 1 :] + lv[:j] + lu[i + 1 :]
        for d in rot[u]:
            vert[d] = u
    loops = set(h.loop_edges)
    return [[d for d in darts if m.edge_of[d] in loops] for darts in rot.values()]


def rotation_form(h: MapHomology) -> list[list[int]]:
    """The intersection form over `h.loop_edges` read from
    `one_vertex_rotations`: entry (a, b) is +1 when, going round the vertex
    from the backward dart of loop a to its forward dart, the walk meets
    the backward dart of loop b but not its forward dart, -1 for the
    reverse, and 0 when it meets both or neither."""
    m = h.map
    index = {ei: k for k, ei in enumerate(h.loop_edges)}
    rows = [[0] * len(index) for _ in index]
    for darts in one_vertex_rotations(h):
        for q in darts:
            p = m.alpha[q]
            if p > q:
                continue
            i = darts.index(q)
            turn = darts[i + 1 :] + darts[:i]
            inside = set(turn[: turn.index(p)])
            for d in darts:
                b = m.edge_of[d]
                if d < m.alpha[d] and b != m.edge_of[p]:
                    q_in, p_in = m.alpha[d] in inside, d in inside
                    rows[index[m.edge_of[p]]][index[b]] = q_in - p_in
    return rows


def _growth(tables: StateTables, k: int, placed: set[int]) -> int:
    """The change in the number of open arc ends that adding crossing k
    makes when the ends in `placed` are added: +1 for an end whose arc
    leads to a crossing not yet added, -1 for one that closes an arc to an
    added one (or to a boundary end), 0 for a kink arc."""
    g = 0
    for x in tables.joins[k][0]:
        if x ^ 1 in placed:
            g -= 1
        elif x ^ 1 not in tables.joins[k][0]:
            g += 1
    return g


def min_growth_order(tables: StateTables) -> list[int]:
    """The crossing that leaves the fewest open arc ends next (ties: the
    lowest index), every growth recomputed at every step, O(n^2): the rule
    `frontier.greedy_order` refines by its lookahead, kept to measure it
    against."""
    placed = set(tables.boundary)
    left = list(range(tables.n))
    order = []
    while left:
        k = min(left, key=lambda k: (_growth(tables, k, placed), k))
        left.remove(k)
        order.append(k)
        placed.update(tables.joins[k][0])
    return order


def greedy_order(tables: StateTables) -> list[int]:
    """The crossing that leaves the fewest open arc ends next; ties go to
    the crossing c after whose addition the crossings not yet added at the
    far ends of c's arcs have the least growth (5 when there are none),
    then to the lowest index.  Every growth and every lookahead is
    recomputed from the added ends, O(n^2) (the reference for the
    incremental `frontier.greedy_order`)."""
    where = {x: k for k, (ends, _) in enumerate(tables.joins) for x in ends}
    placed = set(tables.boundary)

    def lookahead(c: int) -> int:
        after = placed | set(tables.joins[c][0])
        far = {where.get(x ^ 1) for x in tables.joins[c][0]} - {None, c}
        return min((_growth(tables, j, after) for j in far if j in left), default=5)

    left = list(range(tables.n))
    order = []
    while left:
        least = min(_growth(tables, k, placed) for k in left)
        ties = [k for k in left if _growth(tables, k, placed) == least]
        k = min(ties, key=lambda k: (lookahead(k), k))
        left.remove(k)
        order.append(k)
        placed.update(tables.joins[k][0])
    return order


@contextmanager
def crossing_order(order: Sequence[int]) -> Iterator[None]:
    """Every sweep in the block adds the crossings in `order`, which must be
    a permutation of their indices (ValueError): `frontier.greedy_order`,
    which every sweep takes its order from, is patched to return it.  A
    block that sweeps nothing raises AssertionError, so a sweep that stops
    reading the patched function shows."""
    calls = []

    def fixed(tables: StateTables) -> list[int]:
        if sorted(order) != list(range(tables.n)):
            raise ValueError(f"crossing order {list(order)} is not a permutation of range({tables.n})")
        calls.append(tables)
        return list(order)

    greedy, frontier.greedy_order = frontier.greedy_order, fixed
    try:
        yield
    finally:
        frontier.greedy_order = greedy
    if not calls:
        raise AssertionError("no sweep ran in the given crossing order")


def position_of(rep: SurfaceRep) -> dict[int, tuple[int, int]]:
    """(crossing index, corner) of each original dart in its crossing's
    counterclockwise rotation (`rotation_of`); crossing i is the i-th in id
    order, as `RefinedMap` lays out its quads."""
    return {d: (i, k) for i, cyc in enumerate(rotation_of(rep)) for k, d in enumerate(cyc)}


def side_dart(rep: SurfaceRep, ci: int, k_from: int, k_to: int) -> int:
    """The refined map's side-edge dart leaving corner k_from of crossing ci
    toward the adjacent corner k_to (the reference for `RefinedMap.join_side`):
    the quads' darts follow the 2 * `rep.tables.n_arcs` arc ends."""
    if k_to == (k_from + 1) % 4:
        return 2 * rep.tables.n_arcs + 8 * ci + 2 * k_from
    if k_to == (k_from - 1) % 4:
        return 2 * rep.tables.n_arcs + 8 * ci + 2 * k_to + 1
    raise LoopNotOnSurface(f"corners {k_from} and {k_to} are not adjacent")


def is_noncrossing(matching: Matching) -> bool:
    """No two pairs (a, b), (c, d) of the matching interleave as a < c < b < d."""
    for a, b in matching:
        for c, d in matching:
            if (a, b) < (c, d) and a < c < b < d:
                return False
    return True


def jones_divisibility(v_in_t: LaurentPoly) -> LaurentPoly | None:
    """The Laurent polynomial W with 1 - V = W (1-t)(1-t^3), or None.

    Classical knots always admit such a W; failure for a virtual diagram
    is informative output.
    """
    one_minus_v = LaurentPoly.one() - v_in_t
    if one_minus_v.is_zero():
        return LaurentPoly.zero()
    factor = LaurentPoly({0: 1, 1: -1}) * LaurentPoly({0: 1, 3: -1})
    return try_divide_exact(one_minus_v, factor)


def try_divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """`laurent_divide_exact`, returning None instead of raising on indivisibility."""
    try:
        return laurent_divide_exact(num, den)
    except IndivisibleError:
        return None


def canonical_code(d: VirtualLinkDiagram, max_components: int = 6) -> str | None:
    """Canonical Gauss code invariant under crossing relabelling, cyclic
    rotation of components, and component reordering.

    Brute-forces component orders and rotations; returns None beyond
    `max_components` pass-bearing components.
    """
    comps = d.components
    if len(comps) > max_components:
        return None
    best: str | None = None
    for order in permutations(range(len(comps))):
        for rots in product(*(range(len(comps[ci])) for ci in order)):
            relabel: dict[int, int] = {}
            parts = []
            for ci, rot in zip(order, rots):
                comp = comps[ci]
                toks = []
                for p in comp[rot:] + comp[:rot]:
                    relabel.setdefault(p.crossing, len(relabel) + 1)
                    toks.append(f"{p.role}{relabel[p.crossing]}{'+' if d.signs[p.crossing] > 0 else '-'}")
                parts.append("".join(toks))
            cand = ";".join(parts)
            if best is None or cand < best:
                best = cand
    if best is None:
        return "U" + ";U" * (d.free_loops - 1) if d.free_loops else ""
    return best + ";U" * d.free_loops


def adjacent(d: VirtualLinkDiagram, x: tuple[int, str], y: tuple[int, str]) -> bool:
    """Passes x and y, each (crossing, role), are cyclically next to each
    other in one component."""
    for comp in d.components:
        passes = [(p.crossing, p.role) for p in comp]
        if x in passes and y in passes:
            return (passes.index(x) - passes.index(y)) % len(passes) in (1, len(passes) - 1)
    return False


def removal_move(d: VirtualLinkDiagram, crossings: set[int]) -> VirtualLinkDiagram:
    """`d` without `crossings`, which must be an R1 (one crossing whose two
    passes are adjacent) or an R2 (two crossings of opposite sign whose overs
    are adjacent and whose unders are adjacent), else ValueError; a
    component left empty becomes a free loop."""
    if len(crossings) == 1:
        (i,) = crossings
        if not adjacent(d, (i, OVER), (i, UNDER)):
            raise ValueError(f"{crossings} is no R1 removal")
    else:
        i, j = crossings
        overs, unders = adjacent(d, (i, OVER), (j, OVER)), adjacent(d, (i, UNDER), (j, UNDER))
        if d.signs[i] != -d.signs[j] or not (overs and unders):
            raise ValueError(f"{crossings} is no R2 removal")
    comps = [tuple(p for p in comp if p.crossing not in crossings) for comp in d.components]
    signs = {c: s for c, s in d.signs.items() if c not in crossings}
    return VirtualLinkDiagram([c for c in comps if c], signs, d.free_loops + comps.count(()))
