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
dense :func:`smith_normal_form`, and only its diagonal is read.  Boundary
matrices of simplicial complexes have ±1 entries, and on the complexes this
package meets the core is usually empty.  Dense Smith normal form with its
transforms is still used where a cycle is needed (:func:`free_generator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from disklab.errors import InvalidConfigError
from disklab.flagcomplex import DEFAULT_MAX_SIMPLICES, FlagComplex, VertexMap, flag_cliques

Matrix = list[list[int]]


# -- small exact matrix helpers ------------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        rows = len(a)
        cols = len(b[0]) if b else 0
        return [[0] * cols for _ in range(rows)]
    if len(a[0]) != len(b):
        raise InvalidConfigError(f"matrix shape mismatch: {len(a[0])} vs {len(b)}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


# -- Smith normal form ---------------------------------------------------------


@dataclass
class SNFResult:
    """Smith normal form ``U @ A @ V == D`` with unimodular U, V.

    ``diag`` holds the diagonal of D (nonnegative, each dividing the next
    among the nonzero entries); ``rank`` counts the nonzero entries.
    ``u_inv`` satisfies ``U @ u_inv == I`` and is maintained exactly, so
    quotient-group generators can be read off its columns.
    """

    diag: list[int]
    rank: int
    u: Matrix
    u_inv: Matrix
    v: Matrix
    shape: tuple[int, int]


def smith_normal_form(a: Matrix) -> SNFResult:
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]
    u = identity_matrix(m)
    u_inv = identity_matrix(m)
    v = identity_matrix(n)

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def row_add(i: int, j: int, c: int) -> None:
        # row_i += c * row_j ; inverse op on u_inv: col_j -= c * col_i
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= c * r[i]

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def col_swap(i: int, j: int) -> None:
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def col_add(i: int, j: int, c: int) -> None:
        # col_i += c * col_j
        for r in d:
            r[i] += c * r[j]
        for r in v:
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
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            redo = False
            for i in range(m):
                if i == t or d[i][t] == 0:
                    continue
                q = d[i][t] // d[t][t]
                row_add(i, t, -q)
                if d[i][t] != 0:
                    row_swap(t, i)
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
            row_add(t, offender, 1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    diag = [d[i][i] for i in range(limit)]
    rank = sum(1 for x in diag if x != 0)
    return SNFResult(diag=diag, rank=rank, u=u, u_inv=u_inv, v=v, shape=(m, n))


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
    diag = smith_normal_form(core).diag
    return rank + sum(1 for x in diag if x), tuple(x for x in diag if x > 1)


def dense_columns(a: Matrix) -> list[Column]:
    """The columns of a dense matrix as sparse ``{row: entry}`` maps."""
    n = len(a[0]) if a else 0
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(n)]


def matrix_rank(a: Matrix) -> int:
    return rank_and_torsion(dense_columns(a))[0]


def kernel_basis(a: Matrix, n_cols: int | None = None) -> list[list[int]]:
    """Integer basis of ker(A) as a list of column vectors."""
    m = len(a)
    n = len(a[0]) if m else (n_cols or 0)
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    snf = smith_normal_form(a)
    return [[snf.v[i][j] for i in range(n)] for j in range(snf.rank, n)]


def solve_integer_columns(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A @ X == B over the integers; None when no integral solution."""
    m = len(a)
    n = len(a[0]) if m else 0
    if not b:
        return [[] for _ in range(n)]
    k = len(b[0])
    if k == 0:
        return [[] for _ in range(n)]
    if m != len(b):
        raise InvalidConfigError("solve: row counts differ")
    snf = smith_normal_form(a)
    x_cols: list[list[int]] = []
    for col in range(k):
        rhs = [b[i][col] for i in range(m)]
        ub = mat_vec(snf.u, rhs)
        y = [0] * n
        for i in range(min(m, n)):
            di = snf.diag[i]
            if di == 0:
                if ub[i] != 0:
                    return None
            else:
                if ub[i] % di != 0:
                    return None
                y[i] = ub[i] // di
        for i in range(n, m):
            if ub[i] != 0:
                return None
        x_cols.append(mat_vec(snf.v, y))
    return [[x_cols[c][i] for c in range(k)] for i in range(n)]


# -- chain complexes from clique data ------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
    """Per-dimension reduced homology: (betti rank, torsion coefficients)."""

    entries: tuple[tuple[int, tuple[int, ...]], ...]

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

    def boundary(self, k: int) -> Matrix:
        """Dense boundary matrix C_k -> C_{k-1}; k = 0 gives the augmentation row."""
        if k < 0 or k > self.top:
            return []
        rows = 1 if k == 0 else self.n_cells(k - 1)
        cols = self.boundary_columns(k)
        if not cols:
            return []
        mat = [[0] * len(cols) for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                mat[i][j] = x
        return mat

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


def betti_numbers_rational(c: FlagComplex, d_max: int) -> list[int]:
    """Independent rational-rank oracle (Gaussian elimination over Fraction).

    Used by the test suite to cross-check the Smith-normal-form pipeline; it
    shares no code with it beyond boundary-matrix assembly.
    """
    cliques = flag_cliques(c, d_max + 1)
    cc = ChainComplex(cliques)

    def frank(mat: Matrix) -> int:
        if not mat or not mat[0]:
            return 0
        a = [[Fraction(x) for x in row] for row in mat]
        rows, cols = len(a), len(a[0])
        rank = 0
        r = 0
        for jcol in range(cols):
            pivot = next((i for i in range(r, rows) if a[i][jcol] != 0), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            pv = a[r][jcol]
            a[r] = [x / pv for x in a[r]]
            for i in range(rows):
                if i != r and a[i][jcol] != 0:
                    factor = a[i][jcol]
                    a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
            r += 1
            rank += 1
            if r == rows:
                break
        return rank

    return [
        cc.n_cells(k) - frank(cc.boundary(k)) - frank(cc.boundary(k + 1))
        for k in range(d_max + 1)
    ]


# -- generating cycles and induced chain maps ----------------------------------


def free_generator(cc: ChainComplex, k: int) -> dict[tuple[str, ...], int]:
    """A cycle generating the free part of reduced H_k, which must be Z.

    Strategy: take an integer kernel basis K of the boundary in dimension k,
    express the (k+1)-boundaries in K-coordinates (always possible since
    boundaries are cycles), and read the quotient's free generator off the
    Smith normal form of that coordinate matrix.
    """
    if cc.betti_reduced(k) != 1 or cc.torsion(k):
        raise InvalidConfigError(
            f"free_generator requires reduced homology Z in dimension {k}; "
            f"found rank {cc.betti_reduced(k)}, torsion {list(cc.torsion(k))}"
        )
    n_k = cc.n_cells(k)
    kernel = kernel_basis(cc.boundary(k), n_cols=n_k)
    z = len(kernel)
    kmat = [[kernel[j][i] for j in range(z)] for i in range(n_k)]
    bnd = cc.boundary(k + 1)
    n_up = cc.n_cells(k + 1)
    if n_up:
        x = solve_integer_columns(kmat, bnd)
        if x is None:
            raise InvalidConfigError("boundaries failed to lie in the cycle lattice")
        snf = smith_normal_form(x)
        free_indices = [i for i in range(z) if i >= snf.rank]
        if len(free_indices) != 1:
            raise InvalidConfigError(
                f"expected exactly one free quotient factor, found {len(free_indices)}"
            )
        gen_idx = free_indices[0]
        coords = [snf.u_inv[i][gen_idx] for i in range(z)]
    else:
        if z != 1:
            raise InvalidConfigError(f"expected a rank-1 cycle lattice, found rank {z}")
        coords = [1]
    vec = mat_vec(kmat, coords)
    simplices = cc.simplices.get(k, [])
    return {s: c for s, c in zip(simplices, vec) if c != 0}


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
    f: VertexMap,
    s: FlagComplex,
    n: int,
    max_per_dim: int | None = DEFAULT_MAX_SIMPLICES,
) -> dict:
    """Cycle-level retraction certificate in dimension ``n``.

    Requires ``check_retraction(f, s)`` to hold (the caller's obligation;
    re-verified here).  Computes the reduced homology of ``s``, demands it is
    Z in dimension ``n``, extracts a generating cycle, pushes it through the
    composite (include into the domain, then apply ``f``), and verifies the
    composite acts as the identity on the generator.  The returned document
    records the cycle and its image so the check can be replayed.
    """
    from disklab.flagcomplex import check_retraction  # local import to avoid cycle noise

    ok, report = check_retraction(f, s)
    if not ok:
        raise InvalidConfigError(
            "certify_homology_retraction requires a verified retraction; "
            f"first failure: {report[0]}"
        )
    cliques = flag_cliques(s, n + 1, max_per_dim)
    cc = ChainComplex(cliques)
    profile = cc.profile(n)
    if profile.betti(n) != 1 or profile.torsion(n):
        raise InvalidConfigError(
            f"subcomplex homology in dimension {n} is {profile.describe(n)}, not Z"
        )
    cycle = free_generator(cc, n)
    image = apply_chain_map(f.assignment, cycle)
    identity = image == cycle
    return {
        "dimension": n,
        "profile": profile.to_json_obj(),
        "generating_cycle": [[list(s_), c] for s_, c in sorted(cycle.items())],
        "image_cycle": [[list(s_), c] for s_, c in sorted(image.items())],
        "composite_is_identity": identity,
        "passed": bool(identity),
    }
