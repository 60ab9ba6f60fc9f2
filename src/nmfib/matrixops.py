"""Constructions on (N)matrices: powers, strict products, translation images,
value purging.

Power and product values are named by their printed tuples ("(a,b)"), kept in
lexicographic order of the printed names, so constructed systems serialize
reproducibly.  Powers and strict products build no table: each cell is computed
from the factors on its first read and kept on the matrix (see
semantics.Nmatrix), so entailment pays only for the cells its search reads.
The size cap bounds a construction's values, and a whole-table read of the
result (writing it out, comparing it) its cells.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Iterable, Mapping, Optional, Sequence

from .semantics import Cell, MatrixError, Nmatrix, SizeCapExceeded
from .syntax import App, Formula, Translation, params, postorder

__all__ = [
    "SizeCapExceeded",
    "size_cap",
    "power",
    "strict_product",
    "translate_matrix",
    "restrict_values",
    "matrices_equal",
]

DEFAULT_SIZE_CAP = 10000


def size_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"cap (--cap) must be at least 1 (got {explicit})")
        return explicit
    env = os.environ.get("NMFIB_SIZE_CAP")
    if not env:
        return DEFAULT_SIZE_CAP
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"NMFIB_SIZE_CAP must be a positive integer (got {env!r})")
    return int(env)


def _tuple_name(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


def power(matrix: Nmatrix, n: int, cap: Optional[int] = None) -> Nmatrix:
    """The n-power: values are n-tuples acting coordinatewise.

    The n-power is n-saturated and defines the same consequence relation as
    the matrix itself, which is what makes finite powers usable stand-ins
    for the idealized limit construction.  The result records (matrix, n)
    as its `power_of` and each value's n-tuple as its `coords`; n = 1
    returns the matrix itself.  Each cell is
    computed from the matrix's cells on its first read, then kept.
    """
    if n < 1:
        raise MatrixError(f"n (-n) must be at least 1 (got {n})")
    limit = size_cap(cap)
    if n == 1:
        return matrix
    total = len(matrix.values) ** n
    if total > limit:
        raise SizeCapExceeded(f"{total} values exceeds cap {limit}")
    decode = {_tuple_name(t): t for t in sorted(itertools.product(matrix.values, repeat=n), key=_tuple_name)}

    def cell(base: Mapping[Cell, Cell], args: Cell) -> Cell:
        cols = [decode[a] for a in args]
        per_coord = [base[tuple([col[i] for col in cols])] for i in range(n)]
        return tuple(sorted(map(_tuple_name, itertools.product(*per_coord))))  # values are in name order

    designated = [name for name, t in decode.items() if all(v in matrix.designated for v in t)]
    compute = {conn: functools.partial(cell, cells) for conn, cells in matrix.interp.items()}
    label = f"{matrix.name}^{n}" if matrix.name else ""
    result = Nmatrix.computed(matrix.signature, list(decode), designated, compute, limit, label, matrix.saturated)
    result.power_of, result.coords = (matrix, n), decode
    return result


def strict_product(m1: Nmatrix, m2: Nmatrix, cap: Optional[int] = None) -> Nmatrix:
    """The strict product over disjoint signatures.

    Values are the pairs agreeing on designation; a connective from either
    side constrains its own coordinate and leaves the other free within the
    value set.  Each cell is computed from its side's cell on its first
    read, then kept.  The result records (m1, m2, decode) as its `factors`,
    where decode maps each value name to its pair.
    """
    limit = size_cap(cap)
    if not m1.signature.disjoint_from(m2.signature):
        raise MatrixError("strict product needs disjoint signatures")
    d1, d2 = m1.designated, m2.designated
    u1 = [v for v in m1.values if v not in d1]
    u2 = [v for v in m2.values if v not in d2]
    if not (d1 and d2 and u1 and u2):
        raise MatrixError("strict product needs non-degenerate components")
    pairs = [(a, b) for a in m1.values if a in d1 for b in m2.values if b in d2]
    pairs += [(a, b) for a in u1 for b in u2]
    if len(pairs) > limit:
        raise SizeCapExceeded(f"{len(pairs)} values exceeds cap {limit}")
    decode = {_tuple_name(p): p for p in sorted(pairs, key=_tuple_name)}

    @functools.cache
    def spread(coord: int, own: Cell) -> Cell:  # the values over a side's cell, in value order
        return tuple(name for name, p in decode.items() if p[coord] in own)

    def cell(base: Mapping[Cell, Cell], coord: int, args: Cell) -> Cell:
        return spread(coord, base[tuple([decode[a][coord] for a in args])])

    designated = [name for name, p in decode.items() if p[0] in d1]
    sides = ((coord, conn, cells) for coord, m in enumerate((m1, m2)) for conn, cells in m.interp.items())
    compute = {conn: functools.partial(cell, cells, coord) for coord, conn, cells in sides}
    label = f"{m1.name}*{m2.name}" if m1.name and m2.name else ""
    saturated = m1.saturated and m2.saturated
    result = Nmatrix.computed(m1.signature.union(m2.signature), list(decode), designated, compute, limit, label, saturated)
    result.factors = (m1, m2, decode)
    return result


def translate_matrix(matrix: Nmatrix, t: Translation) -> Nmatrix:
    """The matrix over the translation's source signature whose connectives
    are interpreted by evaluating their derived-connective bodies.

    Refused for properly non-deterministic input: evaluating a derived
    connective over an Nmatrix does not induce a well-defined cell map.
    """
    if not matrix.deterministic():
        raise MatrixError("translation image is only defined for deterministic matrices")

    interp: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {}
    for conn, arity in t.source.connectives:
        body = t.body(conn)
        order = list(postorder((body,)))
        cells = {}
        for args in itertools.product(matrix.values, repeat=arity):
            value: dict[Formula, str] = dict(zip(params(arity), args))
            for phi in order:
                if isinstance(phi, App):
                    value[phi] = matrix.cell(phi.head, tuple(value[a] for a in phi.args))[0]
            cells[args] = (value[body],)
        interp[conn] = cells
    return Nmatrix(
        t.source,
        matrix.values,
        matrix.designated,
        interp,
        name=f"{matrix.name}^t" if matrix.name else "",
        saturated=matrix.saturated,
    )


def restrict_values(matrix: Nmatrix, keep: Iterable[str]) -> Nmatrix:
    """Purge all values outside `keep`, intersecting every cell.

    Fails if a cell empties out or the result is degenerate.
    """
    keep_set = set(keep)
    values = [v for v in matrix.values if v in keep_set]
    interp: dict[str, dict[tuple[str, ...], tuple[str, ...]]] = {}
    for conn, arity in matrix.signature.connectives:
        cells = {}
        for args in itertools.product(values, repeat=arity):
            out = tuple(v for v in matrix.cell(conn, args) if v in keep_set)
            if not out:
                raise MatrixError(f"purging empties cell {conn}{args}")
            cells[args] = out
        interp[conn] = cells
    return Nmatrix(
        matrix.signature,
        values,
        [v for v in matrix.designated if v in keep_set],
        interp,
        name=matrix.name,
        saturated=False,
    )


def matrices_equal(m1: Nmatrix, m2: Nmatrix) -> bool:
    """Cell-for-cell equality of whole tables (same values, designation, and interpretation)."""
    return (
        m1.signature == m2.signature
        and m1.values == m2.values
        and m1.designated == m2.designated
        and m1.full_interp() == m2.full_interp()
    )
