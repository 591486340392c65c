"""Exact integer homology of flag complexes by sparse unit-pivot elimination.

Everything here runs over Python's unbounded integers: intermediate Smith
normal form entries can grow far beyond machine words, and a silent overflow
would invalidate a certificate, so no fixed-width arithmetic is allowed
anywhere in this module.

Conventions:

- Chains use the *reduced* convention: the boundary of a vertex is the empty
  simplex, i.e. dimension 0 carries an augmentation row.  The reduced Betti
  numbers of a single point are all zero.
- Simplices are sorted tuples of vertex ids; the sign of a face is the usual
  (-1)^i for dropping the i-th vertex.  Since simplex tuples are sorted and
  vertex ids are canonical, boundary matrices are reproducible bit for bit.

Ranks and torsion come from :func:`rank_and_torsion`, which works on sparse
boundary columns (``{row: entry}`` maps) and never builds a dense matrix.
It repeatedly picks an entry of absolute value 1 as pivot, preferring the
pivot row with the fewest nonzeros to keep fill-in low, and clears that row
from every other column by adding an integer multiple of the pivot column.
Column additions are unimodular, and once the pivot row holds only the pivot,
row additions clear the pivot column without touching any other column.  So
a unit pivot splits ``A ~ [±1] ⊕ A'`` over ℤ, and ``SNF(A) = 1 ⊕ SNF(A')``
exactly: each pivot adds 1 to the rank and nothing to the torsion.  Columns
left without a unit entry form the residual core; only that core goes to the
dense :func:`smith_normal_form`, which returns only its diagonal.  Boundary
matrices of simplicial complexes have ±1 entries, and on the complexes this
package meets the core is usually empty.

Generating cycles come from orientation, not from a kernel basis.  On a
complex with no (k+1)-simplices H_k = ker ∂_k.  If every (k-1)-face (a
*ridge*) lies in exactly two k-simplices, the coefficient of one k-simplex
fixes that of its neighbour across each ridge, so :func:`free_generator`
puts +1 on the lexicographically last k-simplex and propagates signs until
every ridge cancels.  A consistent assignment that reaches every k-simplex
is a cycle with ±1 entries; such a cycle is primitive in the rank-1,
saturated lattice ker ∂_k, so it generates H_k = ℤ.
"""

from __future__ import annotations

from collections import namedtuple

from disklab.errors import InvalidConfigError
from disklab.flagcomplex import DEFAULT_MAX_SIMPLICES, FlagComplex, flag_cliques

Matrix = list[list[int]]


# -- Smith normal form ---------------------------------------------------------


def smith_normal_form(a: Matrix) -> list[int]:
    """Diagonal of the Smith normal form of ``a``, of length ``min(m, n)``.

    The entries are nonnegative, each nonzero one divides the next, and the
    zeros come last, so the rank is the number of nonzero entries.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]

    def col_swap(i: int, j: int) -> None:
        for r in d:
            r[i], r[j] = r[j], r[i]

    def col_add(i: int, j: int, c: int) -> None:
        # col_i += c * col_j
        for r in d:
            r[i] += c * r[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                val = row[j]
                if val != 0 and (best is None or abs(val) < best):
                    best = abs(val)
                    pivot = (i, j)
        if pivot is None:
            break
        d[t], d[pivot[0]] = d[pivot[0]], d[t]
        col_swap(t, pivot[1])
        while True:
            redo = False
            for i in range(m):
                if i == t or d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                if d[i][t] != 0:
                    d[t], d[i] = d[i], d[t]
                    redo = True
                    break
            if redo:
                continue
            for j in range(n):
                if j == t or d[t][j] == 0:
                    continue
                q = d[t][j] // d[t][t]
                col_add(j, t, -q)
                if d[t][j] != 0:
                    col_swap(t, j)
                    redo = True
                    break
            if redo:
                continue
            offender = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1

    return [d[i][i] for i in range(limit)]


Column = dict[int, int]


def rank_and_torsion(columns: list[Column]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion coefficients of the integer matrix with these columns.

    Each column maps a row index to its entry; zero entries are ignored.  The
    torsion is the Smith normal form diagonal entries greater than 1, in
    divisibility order.
    Unit pivots are eliminated sparsely (see the module docstring); the dense
    :func:`smith_normal_form` runs only on the columns left without one.
    The input columns are not modified.
    """
    cols: dict[int, Column] = {}
    rows: dict[int, set[int]] = {}  # row -> indices of the columns holding it
    for j, col in enumerate(columns):
        col = {i: x for i, x in col.items() if x}
        if col:
            cols[j] = col
            for i in col:
                rows.setdefault(i, set()).add(j)

    rank = 0
    progress = True
    while progress:
        progress = False
        for j in sorted(cols):
            col = cols.get(j)
            if col is None:
                continue  # emptied by an earlier elimination in this pass
            pivot = None
            fewest = 0
            for i, x in col.items():
                if (x == 1 or x == -1) and (pivot is None or len(rows[i]) < fewest):
                    pivot, fewest = i, len(rows[i])
            if pivot is None:
                continue
            del cols[j]
            for i in col:
                rows[i].discard(j)
            sign = col[pivot]  # ±1 is its own inverse
            for k in rows.pop(pivot):
                other = cols[k]
                factor = other.pop(pivot) * sign
                for i, x in col.items():
                    if i == pivot:
                        continue
                    y = other.get(i, 0) - factor * x
                    if y:
                        if i not in other:
                            rows[i].add(k)
                        other[i] = y
                    else:
                        del other[i]
                        rows[i].discard(k)
                if not other:
                    del cols[k]
            rank += 1
            progress = True

    if not cols:
        return rank, ()
    core_rows = sorted(i for i, held in rows.items() if held)
    core = [[cols[j].get(i, 0) for j in sorted(cols)] for i in core_rows]
    diag = smith_normal_form(core)
    return rank + sum(1 for x in diag if x), tuple(x for x in diag if x > 1)


# -- chain complexes from clique data ------------------------------------------


class HomologyProfile(namedtuple("HomologyProfile", ["entries"])):
    """Per-dimension reduced homology: (betti rank, torsion coefficients).

    ``entries`` is a tuple of ``(rank, torsion)`` pairs, one per dimension.
    A named tuple rather than a dataclass: ``dataclasses`` imports
    ``inspect``, and the ``homology`` subcommand needs neither.
    """

    __slots__ = ()

    def betti(self, k: int) -> int:
        return self.entries[k][0]

    def torsion(self, k: int) -> tuple[int, ...]:
        return self.entries[k][1]

    @property
    def d_max(self) -> int:
        return len(self.entries) - 1

    def to_json_obj(self) -> list[dict]:
        return [
            {"dimension": k, "betti": rank, "torsion": list(tors)}
            for k, (rank, tors) in enumerate(self.entries)
        ]

    def describe(self, k: int) -> str:
        rank, tors = self.entries[k]
        parts = []
        if rank == 1:
            parts.append("Z")
        elif rank > 1:
            parts.append(f"Z^{rank}")
        parts.extend(f"Z/{t}" for t in tors)
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """Simplicial chain complex (reduced) assembled from clique lists."""

    def __init__(self, simplices_by_dim: dict[int, list[tuple[str, ...]]]):
        self.simplices: dict[int, list[tuple[str, ...]]] = {}
        top = max((k for k, v in simplices_by_dim.items() if v), default=-1)
        for k in range(top + 1):
            bucket = sorted(simplices_by_dim.get(k, []))
            for s in bucket:
                if list(s) != sorted(set(s)):
                    raise InvalidConfigError(f"simplex {s} is not a sorted id tuple")
                if len(s) != k + 1:
                    raise InvalidConfigError(f"simplex {s} has wrong size for dimension {k}")
            if len(set(bucket)) != len(bucket):
                raise InvalidConfigError(f"duplicate simplices in dimension {k}")
            self.simplices[k] = bucket
        self.top = top
        self._index: dict[int, dict[tuple[str, ...], int]] = {
            k: {s: i for i, s in enumerate(v)} for k, v in self.simplices.items()
        }
        for k in range(1, top + 1):
            below = self._index.get(k - 1, {})
            for s in self.simplices[k]:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1 :]
                    if face not in below:
                        raise InvalidConfigError(f"face {face} of {s} missing in dimension {k-1}")
        self._rank_torsion_cache: dict[int, tuple[int, tuple[int, ...]]] = {}

    def n_cells(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    def boundary_columns(self, k: int) -> list[Column]:
        """Sparse columns of the boundary C_k -> C_{k-1}, one ``{row: ±1}`` per k-simplex.

        k = 0 gives the augmentation: every vertex maps to the single row 0.
        """
        if k < 0 or k > self.top:
            return []
        if k == 0:
            return [{0: 1} for _ in range(self.n_cells(0))]
        idx = self._index[k - 1]
        cols = []
        for s in self.simplices[k]:
            col = {}
            sign = 1
            for i in range(len(s)):
                col[idx[s[:i] + s[i + 1 :]]] = sign
                sign = -sign
            cols.append(col)
        return cols

    def _rank_torsion(self, k: int) -> tuple[int, tuple[int, ...]]:
        """(rank, torsion) of the boundary in dimension k, computed once."""
        if k not in self._rank_torsion_cache:
            self._rank_torsion_cache[k] = rank_and_torsion(self.boundary_columns(k))
        return self._rank_torsion_cache[k]

    def boundary_rank(self, k: int) -> int:
        return self._rank_torsion(k)[0]

    def betti_reduced(self, k: int) -> int:
        if k < 0 or k > self.top:
            return 0
        return self.n_cells(k) - self.boundary_rank(k) - self.boundary_rank(k + 1)

    def torsion(self, k: int) -> tuple[int, ...]:
        return self._rank_torsion(k + 1)[1]

    def profile(self, d_max: int) -> HomologyProfile:
        return HomologyProfile(
            entries=tuple((self.betti_reduced(k), self.torsion(k)) for k in range(d_max + 1))
        )


def reduced_homology(
    c: FlagComplex, d_max: int, max_per_dim: int | None = DEFAULT_MAX_SIMPLICES
) -> HomologyProfile:
    """Reduced integer homology of a flag complex in dimensions 0..d_max."""
    if d_max < 0:
        raise InvalidConfigError(f"d_max must be >= 0, got {d_max}")
    cliques = flag_cliques(c, d_max + 1, max_per_dim)
    return ChainComplex(cliques).profile(d_max)


# -- generating cycles and induced chain maps ----------------------------------


def free_generator(cc: ChainComplex, k: int) -> dict[tuple[str, ...], int]:
    """A cycle generating reduced H_k, which must be Z, with +1 on the last k-simplex.

    ``cc`` must have no simplices above dimension k, and every (k-1)-face of
    a k-simplex must lie in exactly two k-simplices: a closed, connected,
    orientable pseudomanifold of dimension k.  Signs are propagated across
    ridges as the module docstring describes; any other input raises.
    """
    if cc.betti_reduced(k) != 1 or cc.torsion(k):
        raise InvalidConfigError(
            f"free_generator requires reduced homology Z in dimension {k}; "
            f"found rank {cc.betti_reduced(k)}, torsion {list(cc.torsion(k))}"
        )
    if cc.n_cells(k + 1):
        raise InvalidConfigError(
            f"free_generator requires no simplices above dimension {k}; "
            f"found {cc.n_cells(k + 1)} in dimension {k + 1}"
        )
    facets = cc.simplices[k]
    ridges: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for j, s in enumerate(facets):
        for i in range(len(s)):
            ridges.setdefault(s[:i] + s[i + 1 :], []).append((j, -1 if i % 2 else 1))
    for ridge, held in ridges.items():
        if len(held) != 2:
            raise InvalidConfigError(
                f"ridge {ridge} lies in {len(held)} simplices of dimension {k}, not 2"
            )
    # The cycle's boundary cancels on a ridge in facets a and b with face signs
    # e_a and e_b iff c_a * e_a + c_b * e_b == 0, i.e. c_b == -c_a * e_a * e_b.
    coeff = {len(facets) - 1: 1}
    stack = [len(facets) - 1]
    while stack:
        j = stack.pop()
        s = facets[j]
        for i in range(len(s)):
            (a, e_a), (b, e_b) = ridges[s[:i] + s[i + 1 :]]
            other = b if a == j else a
            c = -coeff[j] * e_a * e_b
            if other not in coeff:
                coeff[other] = c
                stack.append(other)
            elif coeff[other] != c:
                raise InvalidConfigError(
                    f"simplices of dimension {k} admit no coherent orientation"
                )
    if len(coeff) != len(facets):
        raise InvalidConfigError(
            f"{len(facets) - len(coeff)} simplices of dimension {k} are not reached across ridges"
        )
    return {facets[j]: c for j, c in sorted(coeff.items())}


def permutation_sign(values: list[str]) -> int:
    """Sign of the permutation sorting ``values`` (must be distinct)."""
    inversions = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] > values[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def apply_chain_map(
    assignment: dict[str, str], chain: dict[tuple[str, ...], int]
) -> dict[tuple[str, ...], int]:
    """Push a simplicial chain through a vertex map.

    Simplices with a repeated image vertex are degenerate and map to zero;
    otherwise the image simplex is the sorted tuple with the sign of the
    sorting permutation.
    """
    out: dict[tuple[str, ...], int] = {}
    for simplex, coeff in chain.items():
        images = [assignment[v] for v in simplex]
        if len(set(images)) != len(images):
            continue
        sign = permutation_sign(images)
        target = tuple(sorted(images))
        out[target] = out.get(target, 0) + sign * coeff
        if out[target] == 0:
            del out[target]
    return out


def certify_homology_retraction(
    assignment: dict[str, str],
    s: FlagComplex,
    n: int,
    max_per_dim: int | None = DEFAULT_MAX_SIMPLICES,
) -> dict:
    """Cycle-level retraction certificate in dimension ``n``.

    ``assignment`` maps the vertices of a complex containing ``s`` to
    vertices of ``s`` and must already be checked as a simplicial retraction
    onto ``s`` (the caller's obligation, not repeated here).  Only what the
    cycle argument uses is re-verified: the assignment fixes every vertex of
    ``s``.  Computes the reduced homology of ``s``, demands it is Z in
    dimension ``n``, extracts a generating cycle, pushes it through the
    composite (include into the domain, then apply the assignment), and
    verifies the composite acts as the identity on the generator.  The
    returned document records the cycle and its image so the check can be
    replayed.
    """
    for vid in s.vertex_ids:
        if assignment.get(vid) != vid:
            raise InvalidConfigError(
                "certify_homology_retraction requires a verified retraction; first failure: "
                f"subcomplex vertex {vid!r} is not fixed (maps to {assignment.get(vid)!r})"
            )
    cliques = flag_cliques(s, n + 1, max_per_dim)
    cc = ChainComplex(cliques)
    profile = cc.profile(n)
    if profile.betti(n) != 1 or profile.torsion(n):
        raise InvalidConfigError(
            f"subcomplex homology in dimension {n} is {profile.describe(n)}, not Z"
        )
    cycle = free_generator(cc, n)
    image = apply_chain_map(assignment, cycle)
    identity = image == cycle
    return {
        "dimension": n,
        "profile": profile.to_json_obj(),
        "generating_cycle": [[list(s_), c] for s_, c in sorted(cycle.items())],
        "image_cycle": [[list(s_), c] for s_, c in sorted(image.items())],
        "composite_is_identity": identity,
        "passed": bool(identity),
    }
