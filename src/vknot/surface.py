"""Carter surfaces of virtual diagrams as combinatorial maps.

A diagram's 4-valent graph, thickened using the rotation system at each
crossing and capped along its boundary circles, is a closed orientable
surface in which the diagram embeds.  This module reads that surface's
faces, components and genus straight off the crossing rotation
(`SurfaceRep`), builds its quad refinement (`RefinedMap`), and computes a
homology basis with the integer intersection form, homology classes of
embedded loops, and disk-bounding tests by cutting the surface open.
The refinement is the one map the package builds: it writes its tables
straight from the rotation, with no validation beyond its genus check.
The generic map of arbitrary dart permutations, which validates them and
lays out the same tables, is the reference tests/oracle.py keeps.

The darts are the arc ends of `diagram.arc_ends`, and the crossing
rotation is the counterclockwise dart order at each crossing (validated by
the classical => genus 0 tests): (over-in, under-in, over-out, under-out)
at a positive crossing, the mirrored (over-in, under-out, over-out,
under-in) at a negative one.  The surface reads it from the diagram's
`bracket.StateTables`, built once per surface (`SurfaceRep.tables`), whose
B-joins are that rotation: the faces, the refinement and every surface
sweep read the one table.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .bracket import StateTables
from .diagram import VirtualLinkDiagram
from .symplectic import SkewForm, SymplecticBasis, symplectic_reduce


class LoopNotOnSurface(ValueError):
    """Dart sequence is not a closed walk on the surface."""


class LoopNotEmbedded(ValueError):
    """Loop repeats an edge or meets a vertex twice; it is not cut."""


def _orbits(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of a permutation of 0 .. len(perm) - 1, each from its
    smallest element, in order of that element."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = perm[d]
        out.append(tuple(orbit))
    return tuple(out)


def _orbit_of(orbits: Sequence[Sequence[int]], n_darts: int) -> tuple[int, ...]:
    """Dart -> index of the orbit (vertex, edge or face) holding it."""
    lut = [0] * n_darts
    for i, orbit in enumerate(orbits):
        for d in orbit:
            lut[d] = i
    return tuple(lut)


# -- Carter surface of a diagram -----------------------------------------


class SurfaceRep:
    """A diagram together with its Carter surface, read straight off the
    crossing rotation.

    `tables` is the diagram's `bracket.StateTables`, built here once: the
    B-joins `tables.joins[k][1]` of the k-th crossing in id order are its
    counterclockwise rotation, which the faces, `RefinedMap` and the
    surface sweeps of `vknot.analysis` read.

    The darts are the 4n arc ends: sigma turns each counterclockwise around
    its crossing and alpha(e) = e ^ 1 runs along its arc, so the capped
    boundary circles (`faces`) are the orbits of phi = sigma o alpha, each
    from its smallest end, in order of that end.  With n vertices and 2n
    edges, chi = F - n.  `components` holds the arc ends of each connected
    component, sorted, in order of the smallest: strands that share a
    crossing lie on one, and a strand's arcs are numbered consecutively
    (`arc_ends`).  The genus is C - chi / 2 over the C components.  The
    generic map of the same darts is built only by tests, with
    tests/oracle.py `generic_map`.

    Zero-crossing unknot components live on their own genus-0 spheres and
    have no map darts: `diagram.free_loops` counts them.
    """

    def __init__(self, diagram: VirtualLinkDiagram):
        self.diagram = diagram
        self.tables = tables = StateTables(diagram)
        phi = [0] * (2 * tables.n_arcs)
        for _, (a, b, c, d) in tables.joins:
            phi[a ^ 1], phi[b ^ 1], phi[c ^ 1], phi[d ^ 1] = b, c, d, a
        self.faces = _orbits(phi)
        self.components = _strand_components(diagram)
        chi = len(self.faces) - tables.n
        if chi % 2:
            raise AssertionError("odd Euler characteristic on an orientable map")
        self.genus = len(self.components) - chi // 2

    @cached_property
    def refined(self) -> "RefinedMap":
        return RefinedMap(self)

    @cached_property
    def homology(self) -> "MapHomology":
        return MapHomology(self.refined)

    def __repr__(self) -> str:
        return f"SurfaceRep(genus={self.genus}, crossings={self.diagram.n_crossings})"


def _strand_components(d: VirtualLinkDiagram) -> tuple[tuple[int, ...], ...]:
    """The arc ends of each connected component of the diagram's graph,
    sorted, in order of the smallest: the strands joined by shared
    crossings, strand j holding the consecutive arcs `arc_ends` gives it."""
    root = list(range(len(d.components)))

    def find(j: int) -> int:
        while root[j] != j:
            j = root[j]
        return j

    strand_of: dict[int, int] = {}
    for j, comp in enumerate(d.components):
        for p in comp:
            i = strand_of.setdefault(p.crossing, j)
            if i != j:
                root[find(i)] = find(j)
    ends: dict[int, list[int]] = {}
    first = 0
    for j, comp in enumerate(d.components):
        ends.setdefault(find(j), []).extend(range(2 * first, 2 * (first + len(comp))))
        first += len(comp)
    return tuple(map(tuple, ends.values()))


def build_carter_surface(d: VirtualLinkDiagram) -> SurfaceRep:
    """Closed orientable surface representation of a diagram."""
    return SurfaceRep(d)


def genus(d: VirtualLinkDiagram) -> int:
    """Genus of a diagram's Carter surface."""
    return build_carter_surface(d).genus


# -- quadrilateral refinement --------------------------------------------


class RefinedMap:
    """The same surface with each 4-valent vertex opened into a quad cell.

    Every crossing vertex becomes four corner vertices joined by four side
    edges bounding a square face.  State loops, which turn at smoothed
    crossings rather than passing through graph vertices, become genuine
    edge cycles of this map: each smoothing arc is one of the four sides.
    The refinement keeps chi (per crossing: +3 vertices, +4 edges, +1
    face), hence represents the same surface, which is checked.

    `sigma` rotates the darts counterclockwise around their corner and
    `alpha` is the edge involution; vertices, edges and faces are the
    orbits of sigma, alpha and phi = sigma o alpha.  Each dart's vertex,
    edge and face index is in `vertex_of`, `edge_of` and `face_of`,
    `components` holds the vertices of each connected component, and
    `chi_of_vertex` the Euler characteristic of each vertex's component.
    The tables are written directly, as the generic map of the same sigma
    and alpha in tests/oracle.py would lay them out; `join_side` is this
    map's own.  With b = 2 * rep.tables.n_arcs, darts 0 .. b - 1 are the
    arc ends; crossing i (in id order) owns darts b + 8i .. b + 8i + 7, side
    b + 8i + 2k running from its corner k to corner k + 1 and side
    b + 8i + 2k + 1 back, its corners 0 .. 3 being the ends of its rotation,
    the B-joins `rep.tables.joins[i][1]`.  Vertex e is the corner of arc
    end e, with the ccw rotation (e, side to the next corner, side from the
    previous one).
    alpha(d) = d ^ 1 on every dart, so edge d >> 1 is (d & ~1, d | 1), run
    forward by its even dart.  Faces are the orbits of phi, each from its
    smallest dart, in order of that dart; the components are
    `SurfaceRep.components`, whose arc ends are this map's vertices.
    """

    __slots__ = (
        "n_darts", "sigma", "alpha", "vertices", "edges", "faces", "vertex_of",
        "edge_of", "face_of", "components", "chi_of_vertex", "join_side",
    )

    def __init__(self, rep: SurfaceRep):
        base = 2 * rep.tables.n_arcs
        joins = rep.tables.joins
        self.n_darts = n_darts = base + 8 * len(joins)
        sigma = [0] * n_darts
        vertex_of = list(range(n_darts))
        vertices: list[tuple[int, ...]] = [()] * base
        # (arrival end, departure end) of each smoothing join -> the side dart
        # a state loop takes between them: 8 per crossing
        self.join_side = join_side = {}
        b = base
        for _, (c0, c1, c2, c3) in joins:
            sigma[c0], sigma[c1], sigma[c2], sigma[c3] = b, b + 2, b + 4, b + 6
            sigma[b : b + 8] = b + 7, c1, b + 1, c2, b + 3, c3, b + 5, c0
            vertex_of[b : b + 8] = c0, c1, c1, c2, c2, c3, c3, c0
            vertices[c0], vertices[c1] = (c0, b, b + 7), (c1, b + 2, b + 1)
            vertices[c2], vertices[c3] = (c2, b + 4, b + 3), (c3, b + 6, b + 5)
            join_side.update(
                {(c0, c1): b, (c1, c0): b + 1, (c1, c2): b + 2, (c2, c1): b + 3,
                 (c2, c3): b + 4, (c3, c2): b + 5, (c3, c0): b + 6, (c0, c3): b + 7}
            )
            b += 8
        phi = [0] * n_darts
        phi[::2], phi[1::2] = sigma[1::2], sigma[::2]
        faces = _orbits(phi)
        # chi = F + V - E per component: V corners of 3 darts, so E = 3V / 2
        components = rep.components
        comp_of = [0] * base
        for c, comp in enumerate(components):
            for v in comp:
                comp_of[v] = c
        chi = [-(len(comp) // 2) for comp in components]
        for face in faces:
            chi[comp_of[vertex_of[face[0]]]] += 1
        self.sigma = tuple(sigma)
        self.alpha = tuple([d ^ 1 for d in range(n_darts)])
        self.vertices = tuple(vertices)
        self.edges = tuple(zip(range(0, n_darts, 2), range(1, n_darts, 2)))
        self.faces = faces
        self.vertex_of = tuple(vertex_of)
        self.edge_of = tuple([d >> 1 for d in range(n_darts)])
        self.face_of = _orbit_of(faces, n_darts)
        self.components = components
        self.chi_of_vertex = tuple([chi[c] for c in comp_of])
        # each component of genus g has chi = 2 - 2g
        if any(c % 2 for c in chi) or sum(2 - c for c in chi) != 2 * rep.genus:
            raise AssertionError("refinement changed the surface genus")

    @property
    def map(self) -> "RefinedMap":
        """This map: an alias read only by the benchmark's tracer, whose
        perfbench/tracing.py `_key_loop` reads `rep.refined.map.edge_of`."""
        return self


# -- homology of a combinatorial map -------------------------------------


class MapHomology:
    """Tree-cotree homology of a combinatorial map.

    A spanning tree of the graph (breadth-first from each component's first
    vertex, each vertex reached by the first dart to it) is contracted and a
    spanning tree of the dual (the cotree) is deleted, leaving a one-vertex
    map whose 2g loop edges generate H_1 (Eppstein, Dynamic generators of
    topologically embedded graphs, SODA 2003).  Its cyclic dart order is
    read off one walk around the tree, which crosses a tree edge where
    contracting it would splice the rotations of its ends, and gives the
    intersection form by chord interleaving; capped-face relations express
    deleted edges in the loop-edge basis.  Each dart's class is then stored
    once in symplectic coordinates (`dart_vec`), so the class of any closed
    walk is the sum over its darts.  Only the tree's edges are kept, none of
    its parent darts: tests/oracle.py `tree_parents` rebuilds them by the
    same rule.  The package runs it on the refined map; tests also run it on
    the generic map of tests/oracle.py, which has the same tables.
    """

    def __init__(self, m: RefinedMap):
        self.map = m
        self.loop_edges: list[int] = []  # global generator order
        # edge -> its coordinates over loop-edge indices: none for a tree
        # edge, itself for a loop edge, a face relation for a cotree edge
        self._edge_coords: dict[int, dict[int, int]] = {}
        form: dict[tuple[int, int], int] = {}  # the nonzero entries
        for comp in m.components:
            self._process_component(comp, form)
        dim = len(self.loop_edges)
        self.form = SkewForm.from_rows([[form.get((a, b), 0) for b in range(dim)] for a in range(dim)])
        self.basis: SymplecticBasis | None = symplectic_reduce(self.form) if dim else None
        # dart -> its class in symplectic coordinates, as the nonzero
        # (coordinate, value) pairs, or None for a null-homologous dart: the
        # edge's loop-edge coordinates times the matching columns of
        # basis.inverse, the loop edges in symplectic coordinates
        self.dart_vec: list[tuple[tuple[int, int], ...] | None] = [None] * m.n_darts
        columns = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*self.basis.inverse)] if dim else []
        edges, dart_vec = m.edges, self.dart_vec
        for ei, coords in self._edge_coords.items():
            if not coords:
                continue
            acc = [0] * dim
            for k, v in coords.items():
                for i, x in columns[k]:
                    acc[i] += v * x
            vec = tuple([(i, a) for i, a in enumerate(acc) if a])
            # d < alpha(d) runs the edge forward, its partner backward
            d, e = edges[ei]
            dart_vec[d] = vec
            dart_vec[e] = tuple([(k, -v) for k, v in vec])

    # -- construction ----------------------------------------------------

    def _process_component(self, comp: tuple[int, ...], form: dict[tuple[int, int], int]) -> None:
        m = self.map
        vertices, edges, faces = m.vertices, m.edges, m.faces
        sigma, alpha, vertex_of, edge_of, face_of = m.sigma, m.alpha, m.vertex_of, m.edge_of, m.face_of

        # spanning tree by BFS over vertices, each reached by the first dart
        # to it; only its edges are kept
        root = comp[0]
        tree: set[int] = set()
        order = [root]
        seen = {root}
        for v in order:
            for d in vertices[v]:
                w = vertex_of[alpha[d]]
                if w not in seen:
                    seen.add(w)
                    tree.add(edge_of[d])
                    order.append(w)
        # the component's edges in index order
        comp_edges = [ei for ei, (d, _) in enumerate(edges) if vertex_of[d] in seen]

        # cotree: BFS spanning tree of the dual over faces, using non-tree
        # edges in index order, from the face of the component's smallest
        # dart (vertices and faces are numbered by their smallest darts)
        root_face = face_of[vertices[root][0]]
        adj: dict[int, list[tuple[int, int]]] = {}  # face -> (edge, face across it)
        for ei in comp_edges:
            if ei in tree:
                continue
            d, e = edges[ei]
            f, g = face_of[d], face_of[e]
            adj.setdefault(f, []).append((ei, g))
            adj.setdefault(g, []).append((ei, f))
        face_parent: dict[int, int] = {}  # face -> cotree edge to its parent
        forder = [root_face]
        for f in forder:
            for ei, g in adj.get(f, ()):
                if g != root_face and g not in face_parent:
                    face_parent[g] = ei
                    forder.append(g)
        cotree = set(face_parent.values())

        first = len(self.loop_edges)
        loops = [ei for ei in comp_edges if ei not in tree and ei not in cotree]
        edge_coords = self._edge_coords
        for ei in loops:
            edge_coords[ei] = {len(self.loop_edges): 1}
            self.loop_edges.append(ei)
        for ei in tree:
            edge_coords[ei] = {}

        # eliminate cotree edges via face-boundary relations, deepest faces
        # first: the other cotree edges on a face's boundary lead to its
        # children, one BFS level deeper.  Tree edges add nothing; every
        # other dart adds its edge's coordinates, signed by its direction.
        for f in reversed(forder[1:]):
            e_f = face_parent[f]
            c = 0
            coords: dict[int, int] = {}
            for dart in faces[f]:
                ei = edge_of[dart]
                if ei in tree:
                    continue
                if ei == e_f:
                    c += 1 if dart < alpha[dart] else -1
                elif dart < alpha[dart]:
                    for k, v in edge_coords[ei].items():
                        coords[k] = coords.get(k, 0) + v
                else:
                    for k, v in edge_coords[ei].items():
                        coords[k] = coords.get(k, 0) - v
            if abs(c) != 1:
                raise AssertionError("cotree edge must appear once in its face boundary")
            edge_coords[e_f] = {k: -v // c for k, v in coords.items() if v}

        # the one-vertex map: walk around the tree, keeping the loop darts
        # in their cyclic order, and read the form off their chords
        cyc = []
        start = d = vertices[root][0]
        while True:
            ei = edge_of[d]
            if ei in tree:
                d = sigma[alpha[d]]
            else:
                if ei not in cotree:
                    cyc.append(d)
                d = sigma[d]
            if d == start:
                break
        if len(cyc) != 2 * len(loops):
            raise AssertionError("one-vertex reduction dart count mismatch")
        pos = {d: i for i, d in enumerate(cyc)}
        n = len(cyc)
        ends = [(pos[edges[ei][0]], pos[edges[ei][1]]) for ei in loops]
        for a, (pi, qi) in enumerate(ends, first):
            span = (pi - qi) % n
            for b, (pj, qj) in enumerate(ends, first):
                q_in = 0 < (qj - qi) % n < span
                p_in = 0 < (pj - qi) % n < span
                if q_in != p_in:
                    form[a, b] = 1 if q_in else -1


# -- homology classes -----------------------------------------------------


class HomologyClass(NamedTuple):
    """An element of H_1 in symplectic coordinates, canonicalized up to sign.

    A named tuple, so hashing, equality and ordering run in C: classes are
    dict keys and sorted in the surface bracket's inner loops.
    """

    coords: tuple[int, ...]

    @classmethod
    def canonical(cls, coords: Sequence[int]) -> "HomologyClass":
        """The class of integer coordinates, negated if needed so that its
        first nonzero coordinate is positive."""
        for c in coords:
            if c:
                if c < 0:
                    return cls(tuple([-x for x in coords]))
                break
        return cls(tuple(coords))

    def is_zero(self) -> bool:
        return not any(self.coords)


def loop_homology(rep: SurfaceRep, loop: Sequence[int]) -> HomologyClass:
    """Symplectic-coordinate homology class of a closed walk of refined darts:
    the sum of its darts' classes."""
    h = rep.homology
    m = h.map
    vertex_of, alpha, dart_vec = m.vertex_of, m.alpha, h.dart_vec
    if loop and not (0 <= min(loop) and max(loop) < m.n_darts):
        raise LoopNotOnSurface("dart not on the surface")
    acc = [0] * (2 * rep.genus)
    prev = loop[-1] if loop else None
    for d in loop:
        if vertex_of[d] != vertex_of[alpha[prev]]:
            raise LoopNotOnSurface("dart sequence is not a closed walk")
        prev = d
        vec = dart_vec[d]
        if vec:
            for k, v in vec:
                acc[k] += v
    return HomologyClass.canonical(acc)


# -- cutting --------------------------------------------------------------


def _cut_map(m: RefinedMap, loop: Sequence[int]) -> list[tuple[int, int]]:
    """(chi, boundary circles) of each piece of `m` cut open along `loop`.

    Cutting along a circle keeps chi: the loop's L vertices and L edges are
    doubled.  A loop that meets each vertex once cannot cross itself, and
    the faces on either side of it are joined across non-cut edges, so one
    flood fill over faces, from the face left of loop[0] (the face of its
    dart), never crossing a cut edge, finds the left piece.  When it reaches
    the face right of loop[0] (the face of the reverse dart), the loop does
    not separate, and the one piece has the component's chi
    (`RefinedMap.chi_of_vertex`) and both boundary circles.  Otherwise the
    left side is a piece with chi = faces + corners off the loop - non-cut
    edges (its L corners at the cut and its L edge copies cancel), and the
    right side has the rest of the component's chi; the pieces are listed
    left, right.

    A loop that meets a vertex twice is refused.  On the refined map, the
    only map the package cuts, every corner has one arc dart and two quad
    sides, so a walk that repeats no edge meets each vertex at most once.
    Tests also cut the generic map of tests/oracle.py, with the same
    tables, where a walk can meet a vertex twice.
    """
    loop = list(loop)
    if not loop:
        raise LoopNotOnSurface("empty loop")
    vertex_of, alpha = m.vertex_of, m.alpha
    prev = loop[-1]
    for d in loop:
        if vertex_of[d] != vertex_of[alpha[prev]]:
            raise LoopNotOnSurface("dart sequence is not a closed walk")
        prev = d
    edge_of = m.edge_of
    cut = {edge_of[d] for d in loop}
    if len(cut) != len(loop):
        raise LoopNotEmbedded("loop repeats an edge")
    on_loop = {vertex_of[d] for d in loop}
    if len(on_loop) != len(loop):
        raise LoopNotEmbedded("loop meets a vertex twice")
    face_of, faces = m.face_of, m.faces
    chi = m.chi_of_vertex[vertex_of[loop[0]]]
    left, right = face_of[loop[0]], face_of[alpha[loop[0]]]
    if left == right:
        return [(chi, 2)]
    reached = {left}
    stack = [left]
    corners = set()  # vertices off the loop
    noncut_darts = 0  # 2 per non-cut edge
    while stack:
        for h in faces[stack.pop()]:
            if edge_of[h] in cut:
                continue
            noncut_darts += 1
            g = face_of[alpha[h]]
            if g == right:
                return [(chi, 2)]
            if g not in reached:
                reached.add(g)
                stack.append(g)
            if vertex_of[h] not in on_loop:
                corners.add(vertex_of[h])
    own = len(reached) + len(corners) - noncut_darts // 2
    return [(own, 1), (chi - own, 1)]


def is_disk_bounding(rep: SurfaceRep, loop: Sequence[int]) -> bool:
    """True iff cutting along the loop splits off a disk (chi = 1, one boundary)."""
    return any(chi == 1 and b == 1 for chi, b in _cut_map(rep.refined, loop))
