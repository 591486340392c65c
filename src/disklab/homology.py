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

:func:`reduced_homology` builds each boundary straight from
:func:`flag_cliques`' lists and hands it to :func:`rank_and_torsion` once.
Clique lists are a simplicial complex by construction, so nothing checks
them; the general chain complex, which checks any simplex lists for sorted
ids, sizes, duplicates and missing faces, is kept in ``tests/oracles.py`` as
the reference the tests compare against.

:func:`join_cycle` eliminates nothing: it writes the fundamental cycle of an
octahedral sphere in closed form, for the homology section of ``certify``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

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


# -- reduced homology from clique lists ----------------------------------------


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


def reduced_homology(
    c: FlagComplex, d_max: int, max_per_dim: int | None = DEFAULT_MAX_SIMPLICES
) -> HomologyProfile:
    """Reduced integer homology of a flag complex in dimensions 0..d_max.

    The boundary columns come straight from :func:`flag_cliques`' lists,
    which need no check: every face of a clique is a clique listed one
    dimension down.  Each boundary ``C_k -> C_{k-1}``, ``k = 0..d_max+1``,
    is eliminated once; then ``b_k = n_k - r_k - r_{k+1}``, and the torsion
    in degree ``k`` is that of ``C_{k+1} -> C_k``.
    """
    if d_max < 0:
        raise InvalidConfigError(f"d_max must be >= 0, got {d_max}")
    cliques = flag_cliques(c, d_max + 1, max_per_dim)
    ranks, torsion = [], []
    for k in range(d_max + 2):
        if k == 0:
            columns = [{0: 1} for _ in cliques[0]]  # the augmentation row
        else:
            index = {s: i for i, s in enumerate(cliques[k - 1])}
            columns = [
                {index[s[:i] + s[i + 1 :]]: (-1) ** i for i in range(k + 1)} for s in cliques[k]
            ]
        rank, tors = rank_and_torsion(columns)
        ranks.append(rank)
        torsion.append(tors)
    return HomologyProfile(
        tuple((len(cliques[k]) - ranks[k] - ranks[k + 1], torsion[k + 1]) for k in range(d_max + 1))
    )


# -- the cross-polytope's fundamental cycle ------------------------------------


def join_cycle(pairs: list[tuple[str, str]]) -> dict[tuple[str, ...], int]:
    """The join cycle ``(D_0 - E_0) * ... * (D_n - E_n)`` of ``pairs``, in closed form.

    ``pairs`` lists the antipodal pairs ``(D_i, E_i)`` of an octahedral
    sphere, every id distinct.  The facet that picks ``x_i`` from pair ``i``
    gets ``(-1)`` to the number of ``E`` picks times the sign of the
    permutation that sorts ``x_0, ..., x_n``, and the whole cycle is then
    multiplied by the one sign that puts ``+1`` on the lexicographically
    last facet.  Facets are sorted id tuples, in sorted order.  No chain
    complex is built; the ``retraction`` docstring states why this cycle
    generates the sphere's reduced ``H_n``.
    """
    cycle = {}
    for picks in product((0, 1), repeat=len(pairs)):
        ids = [pair[p] for pair, p in zip(pairs, picks)]
        inversions = sum(a > b for a, b in combinations(ids, 2))
        cycle[tuple(sorted(ids))] = -1 if (sum(picks) + inversions) % 2 else 1
    sign = cycle[max(cycle)]
    return {facet: sign * c for facet, c in sorted(cycle.items())}
