"""Exact integer homology of flag complexes by one sparse integer elimination.

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
exactly: each pivot adds 1 to the rank and nothing to the torsion.  Boundary
matrices of simplicial complexes have ±1 entries, and on the complexes this
package meets the unit pivots are usually all there is.

When a full pass finds no unit entry, one Euclid round runs on an entry
``p`` of least absolute value, as in sparse integer Smith normal forms
(Dumas, Saunders and Villard, J. Symbolic Comput. 2001).  Column additions
with floor quotients cut the other entries of ``p``'s row to remainders
smaller than ``|p|``.  Once none is left, row additions cut the rest of
``p``'s column mod ``p`` and change no other column, and if none is left
there either, ``A ~ [p] ⊕ A'``.  Unit and isolated pivots remove a column,
and any other round leaves a pivot smaller than ``|p|``, so the elimination
ends.  As ``diag(a, b) ~ diag(gcd(a, b), lcm(a, b))``, pairwise steps turn
the isolated ``|p|`` into the divisibility chain, whose entries greater than
1 are the torsion.  ``tests/oracles.py`` keeps a dense Smith normal form as
the reference.

:func:`reduced_homology` builds each boundary straight from
:func:`flag_cliques`' lists and hands it to :func:`rank_and_torsion` once.
Clique lists are a simplicial complex by construction, so nothing checks
them; the general chain complex, which checks any simplex lists for sorted
ids, sizes, duplicates and missing faces, is kept in ``tests/oracles.py`` as
the reference the tests compare against.

A profile is plain data, a tuple of ``(rank, torsion)`` entries, and
:func:`profile_rows` writes it as the JSON rows that ``homology.json`` and
the certificate's homology section share.

:func:`join_cycle` eliminates nothing: it writes the fundamental cycle of an
octahedral sphere in closed form, for the homology section of ``certify``.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm

from disklab.errors import InvalidConfigError
from disklab.flagcomplex import DEFAULT_MAX_SIMPLICES, FlagComplex, flag_cliques


# -- sparse elimination --------------------------------------------------------


Column = dict[int, int]


def rank_and_torsion(columns: list[Column]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion coefficients of the integer matrix with these columns.

    Each column maps a row index to its entry; zero entries are ignored.  The
    torsion is the Smith normal form diagonal entries greater than 1, in
    divisibility order.
    Every pivot is eliminated sparsely, a unit at once and any other entry
    by Euclid rounds (see the module docstring).
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
    isolated = []  # |p| of each non-unit pivot split off as [p] ⊕ A'
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
        if progress or not cols:
            continue
        # No unit entry is left: one Euclid round on an entry p of least
        # absolute value, at row r of column c.
        _, r, c = min((abs(x), i, j) for j, col in cols.items() for i, x in col.items())
        col = cols[c]
        p = col[r]
        for k in sorted(rows[r] - {c}):
            other = cols[k]
            q = other[r] // p  # leaves other[r] % p, smaller than |p|
            for i, x in col.items():
                y = other.get(i, 0) - q * x
                if y:
                    if i not in other:
                        rows[i].add(k)
                    other[i] = y
                else:
                    del other[i]
                    rows[i].discard(k)
            if not other:
                del cols[k]
        if rows[r] == {c}:
            # Row r holds p alone, so row additions of row r change column c
            # only: they reduce its other entries mod p.
            for i in [i for i in col if i != r]:
                col[i] %= p
                if not col[i]:
                    del col[i]
                    rows[i].discard(c)
            if len(col) == 1:
                del cols[c], rows[r]
                isolated.append(abs(p))
                rank += 1
        progress = True

    # After its steps, isolated[i] divides every later entry.
    for i, j in combinations(range(len(isolated)), 2):
        a, b = isolated[i], isolated[j]
        isolated[i], isolated[j] = gcd(a, b), lcm(a, b)
    return rank, tuple(x for x in isolated if x > 1)


# -- reduced homology from clique lists ----------------------------------------


def reduced_homology(
    c: FlagComplex, d_max: int, max_per_dim: int = DEFAULT_MAX_SIMPLICES
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Reduced integer homology of a flag complex in dimensions 0..d_max, up to its first empty one.

    The profile is a tuple of ``(rank, torsion)`` entries, one per dimension
    from 0; ``torsion`` lists the coefficients greater than 1.

    The boundary columns come straight from :func:`flag_cliques`' lists,
    which need no check: every face of a clique is a clique listed one
    dimension down.  No clique has more vertices than the complex, so some
    dimension ``e <= vertex_count()`` is the first without cliques, and
    every dimension from ``e`` up is ``(0, ())``.  The profile therefore
    stops at ``min(d_max, e)``: its last entry is ``e``'s when ``e <= d_max``,
    and every dimension past it reads 0, so the work and the profile's
    length are bounded by the complex, not by ``d_max``.  Each boundary
    ``C_k -> C_{k-1}``, ``k = 0..min(d_max + 1, e)``, is eliminated once;
    then ``b_k = n_k - r_k - r_{k+1}``, and the torsion in degree ``k`` is
    that of ``C_{k+1} -> C_k``.
    """
    if d_max < 0:
        raise InvalidConfigError(f"d_max must be >= 0, got {d_max}")
    cliques = flag_cliques(c, min(d_max + 1, c.vertex_count()), max_per_dim)
    stop = next((k for k, simplices in cliques.items() if not simplices), d_max + 1)
    ranks, torsion = [], []
    for k in range(stop + 1):
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
    entries = tuple((len(cliques[k]) - ranks[k] - ranks[k + 1], torsion[k + 1]) for k in range(stop))
    return entries + ((0, ()),) * (stop <= d_max)


def profile_rows(entries) -> list[dict]:
    """The JSON rows of a homology profile, one per ``(rank, torsion)`` entry from dimension 0."""
    return [{"dimension": k, "betti": rank, "torsion": list(tors)} for k, (rank, tors) in enumerate(entries)]


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
