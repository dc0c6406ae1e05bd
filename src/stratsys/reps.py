"""Representations of a quiver: Hom, Ext^1, named modules, presentations.

A representation assigns an exact-rational vector space to each vertex and a
matrix to each arrow (the matrix for an arrow s -> t has shape dims[t] x
dims[s]).  One linear map carries Hom and Ext^1: the coboundary
(+)_v Hom(x_v, y_v) -> (+)_a Hom(x_s, y_t) of the standard resolution, whose
kernel is Hom(x, y) and whose cokernel is Ext^1(x, y); ``nonsplit_extension``
picks its cocycle from that cokernel, and the universal extensions of
``mutate`` a basis of it.  Ext^1 dimensions come in two
independent flavours, an Euler-form route and a projective-presentation
route, which must always agree.

The constructions work on the integer numerators of the matrices over their
one denominator (``RationalMatrix.nums`` and ``den``).  The only
``Fraction``s they form are the path coefficients of a presentation and the
Hom-space basis that ``hom_space`` hands out.

Each piece of structural work is done once.  ``minimal_presentation`` keeps
its result on the module, so the Ext^1 route and ``artheory.tau`` share it.
A kernel of a morphism out of a direct sum (``sub_representation``) never
builds the sum: an arrow map of the context's P_v or I_v has at most one 1
per row, so it acts as a row gather read off the context's path index, and
the Nakayama images nu(iota) at every vertex (``nakayama_matrices``) are
read off the same table in one pass, with no matrix product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add, itemgetter
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .linalg import RationalMatrix
from .quiver import DimVector, Path, Quiver, euler_form
from .record import Frozen


class Representation(Frozen):
    """Immutable representation: dims per vertex, one matrix per arrow
    (``maps``, aligned with ``quiver.arrows``).

    ``minimal_presentation`` keeps its result on the instance, in
    ``_presentation`` (no part of eq, repr or hash), so the presentation is
    built once per module and dies with it."""

    __slots__ = ("quiver", "dims", "maps", "_presentation")

    def __init__(self, quiver: Quiver, dims: DimVector, maps: tuple[RationalMatrix, ...]):
        if len(dims) != quiver.n:
            raise ValueError("dims length must match vertex count")
        if any(d < 0 for d in dims):
            raise ValueError("dims must be nonnegative")
        if len(maps) != len(quiver.arrows):
            raise ValueError("one matrix per arrow required")
        for a, mat in zip(quiver.arrows, maps):
            want = (dims[quiver.index(a.tgt)], dims[quiver.index(a.src)])
            if (mat.rows, mat.cols) != want:
                raise ValueError(
                    f"map for arrow {a.label} has shape {(mat.rows, mat.cols)}, expected {want}")
        self._init(quiver, dims, maps, None)

    def dim_at(self, vertex: int) -> int:
        return self.dims[self.quiver.index(vertex)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def map(self, label: str) -> RationalMatrix:
        for a, mat in zip(self.quiver.arrows, self.maps):
            if a.label == label:
                return mat
        raise KeyError(label)

    def map_along(self, path: Path, start: int) -> RationalMatrix:
        """Composite matrix along a path starting at ``start``."""
        q = self.quiver
        current = start
        mat = None
        for label in path:
            a = q.arrow_by_label(label)
            if a.src != current:
                raise ValueError("path does not start where expected")
            mat = self.map(label) if mat is None else self.map(label).mul(mat)
            current = a.tgt
        return RationalMatrix.identity(self.dim_at(start)) if mat is None else mat


def make_rep(q: Quiver, dims: Sequence[int], maps: dict[str, Sequence[Sequence]]) -> Representation:
    dims_t = tuple(int(d) for d in dims)
    mats = []
    for a in q.arrows:
        rows_n = dims_t[q.index(a.tgt)]
        cols_n = dims_t[q.index(a.src)]
        raw = maps.get(a.label)
        if raw is None:
            mats.append(RationalMatrix.zero(rows_n, cols_n))
        else:
            mats.append(RationalMatrix.from_rows(raw, cols=cols_n))
    return Representation(q, dims_t, tuple(mats))


def zero_rep(q: Quiver) -> Representation:
    return make_rep(q, q.zero_vector(), {})


# ---------------------------------------------------------------------------
# named modules
# ---------------------------------------------------------------------------

def simple(q: Quiver, i: int) -> Representation:
    """S_i: one-dimensional at vertex i, zero elsewhere."""
    if i not in q.vertices:
        raise KeyError(f"unknown vertex {i}")
    return make_rep(q, q.unit_vector(i), {})


def projective(q: Quiver, i: int) -> Representation:
    """P_i: basis at v = paths from i to v; arrows append themselves."""
    return _gathered(q, "P", i)


def injective(q: Quiver, i: int) -> Representation:
    """I_i: basis at v = dual basis of paths from v to i; an arrow a sends
    the dual of a.p to the dual of p."""
    return _gathered(q, "I", i)


def _gathered(q: Quiver, kind: str, i: int) -> Representation:
    """P_i (kind "P") or I_i ("I"), whose arrow maps hold at most one 1 per
    row, where the context's ``gathers`` say.  Built once per quiver and
    kept in its context's ``proj_inj`` under the same key."""
    ctx = q.context
    key = (kind, i)
    rep = ctx.proj_inj.get(key)
    if rep is None:
        if i not in q.vertices:
            raise KeyError(f"unknown vertex {i}")
        dims = (ctx.proj_dims if kind == "P" else ctx.inj_dims)[q.index(i)]
        maps = []
        for a, gather in zip(q.arrows, ctx.gathers[key]):
            width = dims[q.index(a.src)]
            maps.append(RationalMatrix(len(gather), width, tuple(
                tuple(int(j == g) for j in range(width)) for g in gather), 1))
        rep = ctx.proj_inj[key] = Representation(q, dims, tuple(maps))
    return rep


def direct_sum(parts: Sequence[Representation]) -> Representation:
    if not parts:
        raise ValueError("direct_sum needs at least one summand")
    q = parts[0].quiver
    if any(p.quiver != q for p in parts):
        raise ValueError("summands live over different quivers")
    dims = tuple(sum(p.dims[k] for p in parts) for k in range(q.n))
    maps = []
    for ai, a in enumerate(q.arrows):
        cols_n = dims[q.index(a.src)]
        # each block scaled to the lcm of the denominators; the result is in
        # lowest terms because each block is
        den = lcm(*(p.maps[ai].den for p in parts))
        rows: list[tuple[int, ...]] = []
        c0 = 0
        for p in parts:
            m = p.maps[ai]
            scale = den // m.den
            left, right = (0,) * c0, (0,) * (cols_n - c0 - m.cols)
            rows.extend(left + tuple(x * scale for x in row) + right for row in m.nums)
            c0 += m.cols
        maps.append(RationalMatrix(len(rows), cols_n, tuple(rows), den))
    return Representation(q, dims, tuple(maps))


def dual_representation(m: Representation) -> Representation:
    """Standard duality: a representation of the opposite quiver, whose
    arrows keep their order and labels."""
    return Representation(m.quiver.context.opposite, m.dims,
                          tuple(mat.transpose() for mat in m.maps))


def supp(m: Representation) -> set[int]:
    """Vertices where the representation is nonzero."""
    return {v for v, d in zip(m.quiver.vertices, m.dims) if d}


def is_sincere(m: Representation) -> bool:
    return supp(m) == set(m.quiver.vertices)


# ---------------------------------------------------------------------------
# Hom and Ext^1 through the coboundary of the standard resolution
# ---------------------------------------------------------------------------

class HomSpace(NamedTuple):
    """Basis of Hom(source, target); every element satisfies the
    intertwiner equations f_t . X_a = Y_a . f_s exactly."""

    source: Representation
    target: Representation
    basis: tuple[tuple[RationalMatrix, ...], ...]  # per element, per vertex

    @property
    def dim(self) -> int:
        return len(self.basis)


def _coboundary(x: Representation, y: Representation) -> tuple[list[dict[int, int]], int]:
    """The coboundary C^0 -> C^1 of the standard resolution, as sparse
    integer rows.

    C^0 = (+)_v Hom(x_v, y_v) with variables the entries of f_v, ordered by
    (vertex position, row, col); C^1 = (+)_a Hom(x_s, y_t), ordered by
    (arrow, row, col).  Row i, kept even when empty, is coordinate i of C^1
    in f |-> (f_t x_a - y_a f_s)_a, times the positive integer den(x_a)
    den(y_a), so Hom(x, y) is the kernel and Ext^1(x, y) the cokernel.
    Returns the rows and dim C^0.

    Only nonzeros are walked: the row at (r, c) holds column c of x_a at
    the variables of f_t's row r, then row r of y_a at the variables of
    f_s's column c.  The two meet only on a loop (s == t), at the variable
    (r, c), which is dropped if its terms cancel.
    """
    q = x.quiver
    var_offset = list(accumulate((y.dims[k] * x.dims[k] for k in range(q.n)), initial=0))
    rows: list[dict[int, int]] = []
    for ai, a in enumerate(q.arrows):
        s, t = q.index(a.src), q.index(a.tgt)
        xa, ya = x.maps[ai], y.maps[ai]
        xd, yd = xa.den, ya.den
        x_cols = [[(k, v * yd) for k, v in enumerate(col) if v]
                  for col in (zip(*xa.nums) if xa.rows else ((),) * xa.cols)]
        width_s, width_t = x.dims[s], x.dims[t]
        for r, y_row in enumerate(ya.nums):
            base = var_offset[t] + r * width_t
            y_terms = [(var_offset[s] + k * width_s, -v * xd) for k, v in enumerate(y_row) if v]
            for c, x_terms in enumerate(x_cols):
                row = {base + k: v for k, v in x_terms}
                for key, v in y_terms:
                    val = row.get(key + c, 0) + v
                    if val:
                        row[key + c] = val
                    else:
                        del row[key + c]
                rows.append(row)
    return rows, var_offset[-1]


def hom_dim(x: Representation, y: Representation) -> int:
    """dim Hom(x, y), from the rank of the coboundary, whose rows are
    eliminated shortest first."""
    if x.quiver != y.quiver:
        raise ValueError("representations live over different quivers")
    rows, total = _coboundary(x, y)
    if total == 0:
        return 0
    return total - linalg.rank_of_sparse_rows(sorted(rows, key=len))


def hom_space(x: Representation, y: Representation) -> HomSpace:
    """Explicit basis of Hom(x, y)."""
    if x.quiver != y.quiver:
        raise ValueError("representations live over different quivers")
    q = x.quiver
    rows, total = _coboundary(x, y)
    if total == 0:
        return HomSpace(x, y, ())
    kernel, _ = linalg.kernel_of_rows((row.items() for row in rows), total)
    den = kernel.den
    basis = []
    for vec in kernel.transpose().nums:
        mats = []
        pos = 0
        for k in range(q.n):
            r_n, c_n = y.dims[k], x.dims[k]
            mats.append(RationalMatrix.from_nums(
                [vec[pos + r * c_n: pos + (r + 1) * c_n] for r in range(r_n)], den, c_n))
            pos += r_n * c_n
        basis.append(tuple(mats))
    return HomSpace(x, y, tuple(basis))


def ext1_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1 via the hereditary Euler identity
    dim Ext^1 = dim Hom - <dim x, dim y>."""
    value = hom_dim(x, y) - euler_form(x.quiver, x.dims, y.dims)
    if value < 0:
        raise ArithmeticError("negative Ext dimension; quiver is not hereditary?")
    return value


def end_dim(m: Representation) -> int:
    return hom_dim(m, m)


def is_brick(m: Representation) -> bool:
    return not m.is_zero() and end_dim(m) == 1


def brick_iso(x: Representation, y: Representation) -> bool:
    """Isomorphism test for bricks: Hom is 1-dimensional and its generator
    is invertible at every vertex."""
    if x.dims != y.dims:
        return False
    space = hom_space(x, y)
    if space.dim != 1:
        return False
    gen = space.basis[0]
    for k, d in enumerate(x.dims):
        if d == 0:
            continue
        if linalg.rank(gen[k]) != d:
            return False
    return True


# ---------------------------------------------------------------------------
# kernels of morphisms
# ---------------------------------------------------------------------------

def sub_representation(parts: Sequence[Representation], mats: Sequence[RationalMatrix]
                       ) -> tuple[Representation, dict[int, RationalMatrix]]:
    """Kernel of a morphism out of the direct sum of ``parts``, given by its
    matrix at each vertex, as a representation plus its inclusion matrices
    (columns = basis vectors).

    Each inclusion is ``linalg.kernel_of_rows``: the basis vector of a free
    column f has its last nonzero entry, 1, at f and 0 at the other free
    columns, and the elimination hands out those columns.  So the
    coordinates of an image vector in the target's kernel basis are its
    entries at the target's free columns.  The inclusion is the identity at
    its free rows, so the image lies in the kernel iff the inclusion times
    the coordinates equals the image at the other rows, the pivot rows: one
    integer check per pivot row.

    The sum is never built: an arrow maps the inclusion summand by summand.
    A summand that is the context's P_v or I_v has at most one 1 in each row
    of its arrow maps, so its rows of the image are rows of the inclusion,
    gathered as the context's ``gathers`` say; any other summand multiplies
    its rows.
    """
    q = parts[0].quiver
    if len({p.quiver for p in parts}) != 1:
        raise ValueError("summands live over different quivers")
    if [mat.cols for mat in mats] != list(map(sum, zip(*(p.dims for p in parts)))):
        raise ValueError("the matrices do not start at the sum of the summands")
    incl, free, pivot_rows = {}, {}, {}
    for k, v in enumerate(q.vertices):
        incl[v], free[v] = linalg.kernel_of_rows(map(enumerate, mats[k].nums), mats[k].cols)
        is_free = set(free[v])
        # each pivot row of the inclusion as its (free position, entry) terms
        pivot_rows[v] = [(r, list(filter(itemgetter(1), enumerate(row))))
                         for r, row in enumerate(incl[v].nums) if r not in is_free]
    kinds = [_context_summand(p) for p in parts]
    gathers = q.context.gathers
    maps = []
    for ai, a in enumerate(q.arrows):
        source, s = incl[a.src], q.index(a.src)
        width, zero = source.cols, (0,) * source.cols
        blocks = []  # (numerators, denominator) of each summand's rows of the image
        start = 0
        for part, kind in zip(parts, kinds):
            stop = start + part.dims[s]
            if kind is None:
                rows = RationalMatrix.from_nums(source.nums[start:stop], source.den, width)
                product = part.maps[ai].mul(rows)
                blocks.append((product.nums, product.den))
            else:
                blocks.append(([zero if i is None else source.nums[start + i]
                                for i in gathers[kind][ai]], source.den))
            start = stop
        den = lcm(*(d for _, d in blocks))
        image = [row if d == den else tuple(x * (den // d) for x in row)
                 for nums, d in blocks for row in nums]
        coords = [image[r] for r in free[a.tgt]]
        den_t = incl[a.tgt].den
        for r, terms in pivot_rows[a.tgt]:
            acc = zero
            for i, x in terms:
                acc = tuple(map(add, acc, map(x.__mul__, coords[i])))
            if acc != (image[r] if den_t == 1 else tuple(map(den_t.__mul__, image[r]))):
                raise ValueError("the kernels are not closed under the arrow maps")
        maps.append(RationalMatrix.from_nums(coords, den, width))
    return Representation(q, tuple(incl[v].cols for v in q.vertices), tuple(maps)), incl


def _context_summand(m: Representation) -> Optional[tuple[str, int]]:
    """("P", v) when m is the context's P_v, ("I", v) when it is its I_v,
    else None."""
    ctx = m.quiver.context
    for key in (("P", ctx.proj_vertex.get(m.dims)), ("I", ctx.inj_vertex.get(m.dims))):
        if ctx.proj_inj.get(key) is m:
            return key
    return None


# ---------------------------------------------------------------------------
# minimal projective presentations
# ---------------------------------------------------------------------------

class ProjPresentation(NamedTuple):
    """Minimal presentation 0 -> (+) P_w -> (+) P_v -> M -> 0 over ``quiver``.

    ``slots0``/``slots1`` list the vertex of each indecomposable summand of
    the cover and the kernel.  ``iota`` gives the inclusion as path
    coefficients: iota[(j, i)] is a list of (path, coeff) with the path
    running from slots0[i]'s vertex to slots1[j]'s vertex.  It holds no
    reference to M, which holds it (``minimal_presentation``).
    """

    quiver: Quiver
    slots0: tuple[int, ...]
    slots1: tuple[int, ...]
    iota: dict[tuple[int, int], tuple[tuple[Path, Fraction], ...]]


def _top_lift_indices(m: Representation, vertex: int) -> list[int]:
    """Standard-vector indices at the vertex whose vectors lift a basis of the
    top: those that are not pivot columns of an echelon form of the radical,
    the span of the columns of the incoming arrow maps."""
    q = m.quiver
    d = m.dims[q.index(vertex)]
    incoming = [mat for a, mat in zip(q.arrows, m.maps) if a.tgt == vertex and mat.cols]
    if not (d and incoming):  # the radical is zero
        return list(range(d))
    pivot_cols = linalg.pivot_columns(col for mat in incoming for col in zip(*mat.nums))
    return [j for j in range(d) if j not in pivot_cols]


def projective_cover_data(m: Representation) -> tuple[tuple[int, ...], dict[int, RationalMatrix]]:
    """Cover (+)_slots P_v -> M: slot vertices and per-vertex matrices.

    Slot columns at vertex w are indexed by (slot, path from slot vertex to w).
    A slot lifts a standard vector e_j at its vertex, so its column for a
    path is column j of the path matrix.
    """
    q = m.quiver
    table = q.context.paths
    lifts = {v: _top_lift_indices(m, v) for v in q.vertices}
    cover: dict[int, RationalMatrix] = {}
    for w in q.vertices:
        kw = q.index(w)
        columns = []  # (path matrix, column index), one per slot and path
        for v in q.vertices:
            if lifts[v]:
                mats = [m.map_along(path, v) for path in table[(v, w)]]
                columns.extend((mat, j) for j in lifts[v] for mat in mats)
        den = lcm(*(mat.den for mat, _ in columns))
        nums = [tuple(mat.nums[r][j] * (den // mat.den) for mat, j in columns)
                for r in range(m.dims[kw])]
        cover[w] = RationalMatrix.from_nums(nums, den, len(columns))
    return tuple(v for v in q.vertices for _ in lifts[v]), cover


def minimal_presentation(m: Representation) -> ProjPresentation:
    """Minimal projective presentation; over a hereditary algebra the kernel
    of the cover is projective, so the presentation has length one.

    Built once per module and kept on it: a second call returns the same
    object.  Racing first calls build equal presentations."""
    pres = m._presentation
    if pres is not None:
        return pres
    q = m.quiver
    table = q.context.paths
    slots0, cover = projective_cover_data(m)
    parts = [projective(q, v) for v in slots0] or [zero_rep(q)]
    kernel, incl = sub_representation(parts, [cover[v] for v in q.vertices])
    # sanity: the cover must be onto; its rank is its width less the kernel's
    if any(cover[v].cols - incl[v].cols != d for v, d in zip(q.vertices, m.dims)):
        raise ArithmeticError("projective cover failed to be surjective")
    # the kernel is projective, so its cover is an isomorphism: one P1 slot
    # at w per top lift e_j of the kernel at w, whose generator iota sends
    # to column j of incl[w], read in the path basis of P0 at w
    slots1: list[int] = []
    iota_paths: dict[tuple[int, int], tuple[tuple[Path, Fraction], ...]] = {}
    for w in q.vertices:
        lifts = _top_lift_indices(kernel, w)
        if not lifts:
            continue
        den, rows = incl[w].den, incl[w].nums
        owners = [(i, p) for i, v in enumerate(slots0) for p in table[(v, w)]]
        for lift in lifts:
            j = len(slots1)
            slots1.append(w)
            coeffs: dict[int, list[tuple[Path, Fraction]]] = {}
            for (i, p), val in zip(owners, map(itemgetter(lift), rows)):
                if val:
                    coeffs.setdefault(i, []).append((p, Fraction(val, den)))
            for i, terms in coeffs.items():
                iota_paths[(j, i)] = tuple(terms)
    proj_dims = q.context.proj_dims
    if sum(sum(proj_dims[q.index(w)]) for w in slots1) != kernel.total_dim:
        raise ArithmeticError("kernel of cover is not projective; algebra not hereditary?")
    pres = ProjPresentation(q, tuple(slots0), tuple(slots1), iota_paths)
    object.__setattr__(m, "_presentation", pres)
    return pres


def presentation_matrix(pres: ProjPresentation, y: Representation) -> RationalMatrix:
    """Hom(iota, y): Hom(P0, y) -> Hom(P1, y) for the presentation's inclusion.

    Hom(P_v, y) is identified with y at v, slot by slot, so the rows are
    indexed by (slot of P1, basis of y there) and the columns by (slot of P0,
    basis of y there); the block of slots (j, i) sums the path coefficients
    of the inclusion, each path acting through y's maps.  The terms are
    summed in integers over the lcm of their denominators.
    """
    slots0, slots1 = pres.slots0, pres.slots1
    col_off, total_cols = _offsets(y.dim_at(v) for v in slots0)
    row_off, total_rows = _offsets(y.dim_at(w) for w in slots1)
    terms = [(j, i, coeff, y.map_along(path, slots0[i]))
             for (j, i), paths in pres.iota.items() for path, coeff in paths]
    den = lcm(*(coeff.denominator * mat.den for _, _, coeff, mat in terms))
    rows = [[0] * total_cols for _ in range(total_rows)]
    for j, i, coeff, mat in terms:
        scale = coeff.numerator * (den // (coeff.denominator * mat.den))
        c0 = col_off[i]
        for r, src in enumerate(mat.nums):
            out = rows[row_off[j] + r]
            for c, x in enumerate(src):
                if x:
                    out[c0 + c] += scale * x
    return RationalMatrix.from_nums(rows, den, total_cols)


def nakayama_matrices(pres: ProjPresentation) -> list[RationalMatrix]:
    """nu(iota) at each vertex x, in the order of ``quiver.vertices``: the
    transpose of ``presentation_matrix(pres, projective(q, x))``, built
    transposed and read off the path table with no matrix product.  P_x at
    v has the paths x ~> v as its basis, and a path v ~> w sends the basis
    path r to r.path; rows are indexed by (slot of P0, path x ~> its
    vertex), columns by (slot of P1, path x ~> its vertex)."""
    q, slots0, slots1 = pres.quiver, pres.slots0, pres.slots1
    table, index = q.context.paths, q.context.path_index
    den = lcm(*(coeff.denominator for paths in pres.iota.values() for _, coeff in paths))
    terms = [(i, j, path, coeff.numerator * (den // coeff.denominator))
             for (j, i), paths in pres.iota.items() for path, coeff in paths]
    mats = []
    for x in q.vertices:
        row_off, total_rows = _offsets(len(table[(x, v)]) for v in slots0)
        col_off, total_cols = _offsets(len(table[(x, w)]) for w in slots1)
        rows = [[0] * total_cols for _ in range(total_rows)]
        for i, j, path, scale in terms:
            position, c0 = index[(x, slots1[j])], col_off[j]
            for r, basis_path in enumerate(table[(x, slots0[i])], row_off[i]):
                rows[r][c0 + position[basis_path + path]] += scale
        mats.append(RationalMatrix.from_nums(rows, den, total_cols))
    return mats


def _offsets(sizes) -> tuple[list[int], int]:
    """The first position of each block of the given sizes, and their sum."""
    ends = [0, *accumulate(sizes)]
    return ends[:-1], ends[-1]


def hom_ext_via_presentation(pres: ProjPresentation, y: Representation) -> tuple[int, int]:
    """(dim Hom(M, y), dim Ext^1(M, y)) from the presentation of M: applying
    Hom(-, y) to 0 -> P1 -> P0 -> M -> 0 leaves the kernel and cokernel of
    ``presentation_matrix``."""
    mat = presentation_matrix(pres, y)
    rk = linalg.rank_of_rows(mat.nums)
    return mat.cols - rk, mat.rows - rk


def ext1_dim_direct(x: Representation, y: Representation) -> int:
    """dim Ext^1 via the projective-presentation route (independent oracle)."""
    if x.quiver != y.quiver:
        raise ValueError("representations live over different quivers")
    if x.is_zero() or y.is_zero():
        return 0
    _, ext = hom_ext_via_presentation(minimal_presentation(x), y)
    return ext


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def _cochain_entry(top: Representation, sub: Representation, coord: int
                   ) -> tuple[int, int, int]:
    """(arrow position, row of sub_t, column of top_s) of coordinate
    ``coord`` of C^1 = (+)_a Hom(top_s, sub_t), in ``_coboundary`` order."""
    q = top.quiver
    for ai, a in enumerate(q.arrows):
        width = top.dim_at(a.src)
        size = sub.dim_at(a.tgt) * width
        if coord < size:
            return (ai, *divmod(coord, width))
        coord -= size
    raise IndexError("coordinate beyond C^1")


def _glued(parts: Sequence[Representation],
           entries: Sequence[tuple[int, int, int]]) -> Representation:
    """direct_sum(parts) with the entry 1 added at each (arrow position,
    row, column) of ``entries``, in the coordinates of the sum."""
    split = direct_sum(parts)
    maps = list(split.maps)
    for ai, r, c in entries:
        mat = maps[ai]
        nums = [list(row) for row in mat.nums]
        nums[r][c] = mat.den
        maps[ai] = RationalMatrix.from_nums(nums, mat.den, mat.cols)
    return Representation(split.quiver, split.dims, tuple(maps))


def nonsplit_extension(top: Representation, sub: Representation) -> Representation:
    """Middle term of a non-split extension 0 -> sub -> E -> top -> 0.

    Deterministic: the first standard cocycle outside the coboundary span is
    used.  Raises ValueError when Ext^1(top, sub) = 0.
    """
    rows, total = _coboundary(top, sub)
    columns = [[row.get(j, 0) for row in rows] for j in range(total)]
    # e_j lies in the coboundary span iff j is a pivot column of its RREF
    # whose row is e_j itself (each RREF row leads with its 1); scaling the
    # rows of the coboundary by positive integers keeps that answer
    rref_rows = {row.index(1): row for row in linalg.span_basis(columns, len(rows))}
    chosen = next((j for j in range(len(rows))
                   if j not in rref_rows or sum(map(bool, rref_rows[j])) > 1), None)
    if chosen is None:
        raise ValueError("Ext^1(top, sub) = 0; no non-split extension exists")
    # the cocycle's one entry, at (row r of sub_t, column c of top_s) of its
    # arrow, joins top_s to sub_t inside the direct sum
    ai, r, c = _cochain_entry(top, sub, chosen)
    return _glued([sub, top], [(ai, r, sub.dim_at(top.quiver.arrows[ai].src) + c)])


def _universal_extension(top: Representation, sub: Representation,
                         left: bool) -> Representation:
    """With e = dim Ext^1(top, sub): the middle term of the universal
    extension 0 -> sub -> L -> top^e -> 0 (``left``) or
    0 -> sub^e -> R -> top -> 0.  Its classes are the standard cocycles at
    the coordinates of C^1 that are not pivots of the coboundary's image, a
    basis of Ext^1(top, sub)."""
    rows, total = _coboundary(top, sub)
    pivots = linalg.pivot_columns([row.get(j, 0) for row in rows] for j in range(total))
    basis = [j for j in range(len(rows)) if j not in pivots]
    e, arrows = len(basis), top.quiver.arrows
    entries = []
    for k, coord in enumerate(basis):
        ai, r, c = _cochain_entry(top, sub, coord)
        s_sub, t_sub = sub.dim_at(arrows[ai].src), sub.dim_at(arrows[ai].tgt)
        s_top = top.dim_at(arrows[ai].src)
        if left:  # class k joins copy k of top to sub
            entries.append((ai, r, s_sub + k * s_top + c))
        else:  # class k joins top to copy k of sub
            entries.append((ai, k * t_sub + r, e * s_sub + c))
    parts = [sub] + [top] * e if left else [sub] * e + [top]
    return _glued(parts, entries)


def mutate(e: Representation, f: Representation, left: bool) -> Representation:
    """The left mutation L_E F (``left``) or the right mutation R_F E of an
    exceptional pair (E, F), one with Hom(F, E) = Ext^1(F, E) = 0.

    At most one of Hom(E, F) and Ext^1(E, F) is nonzero (Happel-Ringel), so
    k = <dim E, dim F> says which (Crawley-Boevey 1993; Ringel, "The braid
    group action on the set of exceptional sequences of a hereditary artin
    algebra", 1994):
      * k < 0: the universal extension 0 -> F -> L -> E^-k -> 0, or
        0 -> F^-k -> R -> E -> 0;
      * k > 0: the canonical map E^k -> F, or E -> F^k, whose components
        are a basis of Hom(E, F), is mono or epi, and the mutation is its
        cokernel or its kernel; a cokernel is the dual of the kernel of the
        dual map;
      * k = 0: F, or E.
    So dim L_E F = +-(dim F - k dim E) and dim R_F E = +-(dim E - k dim F).
    The caller certifies the result (its dims and dim End = 1).
    """
    q = e.quiver
    k = euler_form(q, e.dims, f.dims)
    if k < 0:
        return _universal_extension(e, f, left)
    if k == 0:
        return f if left else e
    basis = hom_space(e, f).basis
    mats = []
    for v in range(q.n):  # the components over one denominator
        den = lcm(*(g[v].den for g in basis))
        parts = [[[x * (den // g[v].den) for x in row] for row in g[v].nums] for g in basis]
        if left:  # E^k -> F: the components side by side
            mats.append(RationalMatrix.from_nums([sum(rows, []) for rows in zip(*parts)],
                                                 den, k * e.dims[v]))
        else:  # E -> F^k: the components stacked
            mats.append(RationalMatrix.from_nums(sum(parts, []), den, e.dims[v]))
    sources, targets = ([e] * k, [f]) if left else ([e], [f] * k)
    if all(mat.rows >= mat.cols for mat in mats):  # mono: the cokernel
        kernel, _ = sub_representation([dual_representation(f)] * len(targets),
                                       [m.transpose() for m in mats])
        return Representation(q, kernel.dims, tuple(m.transpose() for m in kernel.maps))
    return sub_representation(sources, mats)[0]
