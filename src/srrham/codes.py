"""q-ary Hamming codes: construction, import validation, dual enumeration.

Two deterministic layouts are provided.  ``classic_hamming`` orders the
parity-check columns by counting (for q=2 column i is the binary expansion of
i, most significant bit on top) and places the data symbols at the columns of
weight >= 2, which is the usual textbook presentation.  ``systematic_hamming``
reorders the classic code's columns into the standard form G = [I_k | P],
H = [-P^T | I_r].  Either way the code is a [(q^r-1)/(q-1), n-r, 3] code
whose dual has all nonzero words of weight q^(r-1).

All coordinates in reported sets and JSON are 1-based.
"""

from __future__ import annotations

import functools
import operator
from typing import Optional, Sequence

from .errors import SHOWN_BITS, WorkLimitError
from .fields import FieldMatrix, Frozen, is_prime, kernel_basis, rank

# Ham(11, 2) has k * n = 4.2 M generator entries: gen builds and writes it in
# about 5 s with a 400 MB peak (Python 3.11 on a 2-core Xeon VM), and each
# step in r costs about 4x more, so this limit admits it and stops Ham(12, 2).
CODE_ENTRY_LIMIT = 5 * 10 ** 6


def hamming_length(r: int, q: int) -> int:
    return (q ** r - 1) // (q - 1)


def check_code_entries(r: int, q: int) -> None:
    """Raise WorkLimitError if Ham(r, q)'s generator has more than
    CODE_ENTRY_LIMIT entries.  There are at least n >= 2^(r-1) of them,
    which settles a huge r before q^r is formed."""
    subject = f"Ham({r},{q}) has"
    if r - 1 > SHOWN_BITS:
        raise WorkLimitError(subject, "generator entries", CODE_ENTRY_LIMIT, log2=r - 1)
    n = hamming_length(r, q)
    if (n - r) * n > CODE_ENTRY_LIMIT:
        raise WorkLimitError(subject, "generator entries", CODE_ENTRY_LIMIT, (n - r) * n)


class Codeword(Frozen):
    """A codeword with its cached nonzero support (1-based)."""

    __slots__ = ("entries", "support")

    def __init__(self, entries: tuple[int, ...], support: tuple[int, ...]) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "support", support)

    @classmethod
    def from_entries(cls, entries: Sequence[int]) -> "Codeword":
        ent = tuple(entries)
        return cls(ent, tuple(i + 1 for i, v in enumerate(ent) if v != 0))


class LinearCode(Frozen):
    """A q-ary Hamming code: both describing matrices, which fix n, k and r.

    ``unit_columns`` holds, for each data symbol i, the first 1-based
    generator column equal to a nonzero multiple of e_i, or None; it is found
    once, when the code is built.  ``systematic_positions`` is that tuple when
    no symbol lacks one.  ``d`` is 3, which the Hamming check on import fixes.
    """

    __slots__ = ("q", "generator", "parity_check", "unit_columns")

    d = 3

    def __init__(self, q: int, generator: FieldMatrix, parity_check: FieldMatrix) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "parity_check", parity_check)
        object.__setattr__(self, "unit_columns", scaled_unit_columns(generator))

    @property
    def systematic_positions(self) -> Optional[tuple[int, ...]]:
        return None if None in self.unit_columns else self.unit_columns

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows

    @property
    def r(self) -> int:
        return self.parity_check.rows

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "r": self.r,
            "n": self.n,
            "k": self.k,
            "generator": self.generator.to_lists(),
            "parity_check": self.parity_check.to_lists(),
            "systematic_positions": (
                list(self.systematic_positions)
                if self.systematic_positions is not None
                else None
            ),
        }


def subspace_representatives(r: int, q: int) -> list[tuple[int, ...]]:
    """One vector per 1-dimensional subspace of GF(q)^r.

    Representatives are normalized to leading coefficient 1 and ordered
    lexicographically as base-q digit strings (for q=2 this is exactly the
    counting order 1, 2, 3, ...).
    """
    reps = []
    for value in range(1, q ** r):
        digits = []
        v = value
        for _ in range(r):
            digits.append(v % q)
            v //= q
        vec = tuple(reversed(digits))
        first = next(x for x in vec if x != 0)
        if first == 1:
            reps.append(vec)
    return reps


def build_parity_check(r: int, q: int) -> FieldMatrix:
    """Parity-check matrix of Ham(r, q): one column per 1-dim subspace."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    cols = subspace_representatives(r, q)
    return FieldMatrix(q, tuple(tuple(col[i] for col in cols) for i in range(r)))


def _column_weight(col: Sequence[int]) -> int:
    return sum(1 for v in col if v != 0)


@functools.lru_cache(maxsize=None)
def classic_hamming(r: int, q: int) -> LinearCode:
    """Ham(r, q) with counting-ordered H and data symbols at weight->=2 columns."""
    h = build_parity_check(r, q)
    n, k = h.cols, h.cols - r
    data = [j for j in range(n) if _column_weight(h.column(j)) >= 2]
    # The other columns are the unit vectors e_m (leading coefficient 1).
    parity = {h.column(j).index(1): j for j in range(n) if j not in data}
    gen_rows = []
    for i in range(k):
        row = [0] * n
        row[data[i]] = 1
        for m in range(r):
            row[parity[m]] = (-h.entries[m][data[i]]) % q
        gen_rows.append(tuple(row))
    return LinearCode(q, FieldMatrix(q, tuple(gen_rows)), h)


@functools.lru_cache(maxsize=None)
def systematic_hamming(r: int, q: int) -> LinearCode:
    """Standard-form Ham(r, q): G = [I_k | P], H = [-P^T | I_r].

    The classic code with its columns reordered: first the data columns in
    order, then the unit parity columns ordered by the row holding their 1.
    Each parity column of G then has weight q^(r-1) - 1.
    """
    classic = classic_hamming(r, q)
    g, h = classic.generator, classic.parity_check
    data = [j for j in range(classic.n) if _column_weight(h.column(j)) >= 2]
    # The other columns of the classic H are the unit vectors; e_m goes to k + m.
    unit = sorted(set(range(classic.n)) - set(data), key=lambda j: h.column(j).index(1))
    cols = data + unit
    return LinearCode(q, g.select_columns(cols), h.select_columns(cols))


def scaled_unit_columns(generator: FieldMatrix) -> tuple[Optional[int], ...]:
    """``LinearCode.unit_columns`` of a code with this generator."""
    out: list[Optional[int]] = [None] * generator.rows
    for j, column in enumerate(zip(*generator.entries), start=1):
        nonzero = [i for i, v in enumerate(column) if v != 0]
        if len(nonzero) == 1 and out[nonzero[0]] is None:
            out[nonzero[0]] = j
    return tuple(out)


def import_generator(
    entries: Sequence[Sequence[int]],
    q: int,
    parity_check: Optional[FieldMatrix] = None,
) -> LinearCode:
    """Accept an arbitrary k x n generator matrix of a Hamming code.

    The parity check is a kernel basis of the rows (or the caller-provided
    one, after checking orthogonality); the import is rejected unless the dual
    columns are nonzero, pairwise independent, and cover every 1-dimensional
    subspace (which pins n = (q^r-1)/(q-1) and d = 3).
    """
    generator = FieldMatrix.from_rows(entries, q)
    n, k = generator.cols, generator.rows
    if rank(generator) != k:
        raise ValueError(f"generator has rank deficit: rank < {k}")
    r = n - k
    if r < 2 or hamming_length(r, q) != n:
        raise ValueError(
            "parity check violates Hamming property: "
            f"length {n} incompatible with redundancy {r}"
        )
    if parity_check is None:
        parity_check = kernel_basis(generator)
    elif (
        parity_check.cols != n
        or rank(parity_check) != r
        or any(
            sum(map(operator.mul, g, h)) % q
            for g in generator.entries
            for h in parity_check.entries
        )
    ):
        raise ValueError("provided parity check does not match the generator")
    if parity_check.rows != r:
        raise ValueError("dual dimension mismatch")
    reps = set()
    for j in range(n):
        col = parity_check.column(j)
        nonzero = [v for v in col if v != 0]
        if not nonzero:
            raise ValueError("parity check violates Hamming property: zero column")
        inv = pow(nonzero[0], -1, q)
        reps.add(tuple((v * inv) % q for v in col))
    if len(reps) != n:
        raise ValueError(
            "parity check violates Hamming property: dependent column pair"
        )
    return LinearCode(q, generator, parity_check)


@functools.lru_cache(maxsize=None)
def dual_codewords(code: LinearCode) -> tuple[Codeword, ...]:
    """All q^r codewords of the dual (simplex) code, in span-enumeration order."""
    q = code.q
    n = code.n
    words = [tuple([0] * n)]
    for row in code.parity_check.entries:
        scaled = [tuple((a * row[j]) % q for j in range(n)) for a in range(q)]
        words = [
            tuple((w[j] + s[j]) % q for j in range(n)) for w in words for s in scaled
        ]
    return tuple(Codeword.from_entries(w) for w in words)


def odd_weight_columns(matrix: FieldMatrix) -> list[int]:
    """1-based indices of columns with odd Hamming weight."""
    return [
        j + 1
        for j in range(matrix.cols)
        if _column_weight(matrix.column(j)) % 2 == 1
    ]


def odd_weight_column_count(code: LinearCode) -> int:
    """O_w: number of odd-weight generator columns (binary codes only)."""
    if code.q != 2:
        raise ValueError("odd-weight column count is defined for q = 2 only")
    return len(odd_weight_columns(code.generator))


def _int_rows(rows, key: str, q: int) -> list[list[int]]:
    """The document's ``key`` matrix: a list of lists of ints in [0, q),
    never coerced or reduced."""
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) for row in rows)
        and all(type(v) is int for row in rows for v in row)
    ):
        raise ValueError(f"{key!r} must be a list of lists of integers")
    bad = next((v for row in rows for v in row if not 0 <= v < q), None)
    if bad is not None:
        raise ValueError(f"{key!r} entry {bad} is outside [0, {q})")
    return rows


def code_from_json_dict(data: dict) -> LinearCode:
    """Rebuild a code from the canonical JSON layout (validating on import).

    'q' must be an int, and 'generator' (and 'parity_check', when present)
    a list of int rows with entries in [0, q); nothing is coerced or reduced
    (unlike ``import_generator``, which reduces its entries mod q).  A
    Hamming code over GF(q) has length n >= q + 1, so q >= n is rejected
    before the primality test, which a huge q would not finish.
    """
    q = data["q"]
    if type(q) is not int:
        raise ValueError(f"'q' must be an integer, got {q!r}")
    if q < 2:  # else every entry would be reported out of [0, q)
        raise ValueError(f"modulus {q} is not prime")
    generator = _int_rows(data["generator"], "generator", q)
    n = max(map(len, generator), default=0)
    if q >= n:
        raise ValueError(
            f"q = {q} is not below the length n = {n}; a Hamming code over "
            "GF(q) has n >= q + 1"
        )
    pc = None
    if data.get("parity_check") is not None:
        pc = FieldMatrix.from_rows(_int_rows(data["parity_check"], "parity_check", q), q)
    code = import_generator(generator, q, parity_check=pc)
    for key in ("n", "k", "r"):
        value = data.get(key, getattr(code, key))
        if type(value) is not int or value != getattr(code, key):
            raise ValueError(f"inconsistent code file: field {key!r} mismatch")
    return code
