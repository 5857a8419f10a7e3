"""Supernatural numbers and the homotopy-group tables they classify.

Exact integer arithmetic on sparse prime-exponent maps; infinity is the
only non-integer exponent. Q(a) membership, isomorphism-equivalence with
explicit witnesses, and the unitary / isotropy homotopy table for the
algebras classified by a.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import inf, isinf
from typing import NamedTuple

INF = inf


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of an integer n >= 1 (operator.index), a new dict
    each call, by trial division up to 10^6, run once per process for each
    distinct n; a part of n then left over 10^12, which could be composite,
    raises ValueError."""
    return dict(_prime_powers(operator.index(n)))


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d, whole = 2, n
    while d * d <= n and d <= 10**6:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 10**12:
        raise ValueError(f"cannot factor {whole}: trial division up to 10^6 leaves {n} > 10^12")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


@dataclass(frozen=True)
class SupernaturalNumber:
    """Formal prime factorization with exponents in N union {infinity}.

    Absent primes have exponent zero; primes and exponents are ints, not
    bools, except for the infinity marker.
    """

    exponents: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for p, e in self.exponents.items():
            if type(p) is not int or p < 2 or _prime_powers(p) != ((p, 1),):
                raise ValueError(f"{p!r} is not a prime int")
            if e == INF:
                clean[p] = INF
            elif type(e) is not int or e < 0:
                raise ValueError(f"bad exponent {e!r} for prime {p}")
            elif e:
                clean[p] = e
        object.__setattr__(self, "exponents", dict(sorted(clean.items())))

    def exponent(self, p: int):
        return self.exponents.get(p, 0)

    @property
    def infinite_primes(self) -> frozenset:
        return frozenset(p for p, e in self.exponents.items() if isinf(e))

    def __str__(self):
        if not self.exponents:
            return "1"
        parts = []
        for p, e in self.exponents.items():
            if isinf(e):
                parts.append(f"{p}^inf")
            elif e == 1:
                parts.append(str(p))
            else:
                parts.append(f"{p}^{e}")
        return "*".join(parts)


def from_int(n: int) -> SupernaturalNumber:
    return SupernaturalNumber(factorize(n))


def from_type_sequence(ns, tail_ratio: int | None = None) -> SupernaturalNumber:
    """Supernatural number of a matrix-algebra tower of type (n_j).

    Each entry must divide the next. A finite list is read as eventually
    constant; a tail descriptor `tail_ratio` declares that the sequence
    keeps growing by that ratio forever, sending its primes to infinity.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("empty type sequence")
    if any(n < 2 for n in ns):
        raise ValueError("type entries must be >= 2")
    for a, b in zip(ns, ns[1:]):
        if b % a != 0:
            raise ValueError(f"divisibility violated: {a} does not divide {b}")
    exps: dict[int, int | float] = {}
    for n in ns:
        for p, e in factorize(n).items():
            exps[p] = max(exps.get(p, 0), e)
    if tail_ratio is not None:
        if tail_ratio < 2:
            raise ValueError("tail ratio must be >= 2")
        for p in factorize(tail_ratio):
            exps[p] = INF
    return SupernaturalNumber(exps)


def mul(a: SupernaturalNumber, b: SupernaturalNumber) -> SupernaturalNumber:
    """Exponentwise sum; infinity absorbs."""
    exps = dict(a.exponents)
    for p, e in b.exponents.items():
        cur = exps.get(p, 0)
        exps[p] = INF if (isinf(e) or isinf(cur)) else cur + e
    return SupernaturalNumber(exps)


def q_contains(a: SupernaturalNumber, rational) -> bool:
    """Membership of a rational (in lowest terms) in the subgroup Q(a):
    every prime exponent of the denominator must be <= the corresponding
    exponent of a. A zero denominator raises ValueError."""
    try:
        q = Fraction(rational)
    except ZeroDivisionError:
        raise ValueError(f"{rational!r} has a zero denominator") from None
    return all(e <= a.exponent(p) for p, e in factorize(q.denominator).items())


class IsoWitness(NamedTuple):
    equivalent: bool
    c: int | None
    d: int | None


def iso_equivalent(a: SupernaturalNumber, b: SupernaturalNumber) -> IsoWitness:
    """Decide whether Q(a) and Q(b) are isomorphic, i.e. whether natural
    numbers c, d exist with a c = b d; the witnesses are returned."""
    if a.infinite_primes != b.infinite_primes:
        return IsoWitness(False, None, None)
    c = 1
    d = 1
    for p in set(a.exponents) | set(b.exponents):
        ea, eb = a.exponent(p), b.exponent(p)
        if isinf(ea):
            continue
        if eb > ea:
            c *= p ** (eb - ea)
        elif ea > eb:
            d *= p ** (ea - eb)
    return IsoWitness(True, c, d)


PI_ZERO = "0"
PI_Q = "Q(a)"
PI_Z_X_Q = "Z x Q(a)"


class HomotopyRow(NamedTuple):
    k: int
    unitary_group: str
    isotropy_group: str


# Most rows a homotopy table takes. The groups repeat with period 2 from
# k = 2 on, so the cap loses nothing; it refuses a --k-max that would build
# an unbounded list.
MAX_TABLE_K = 64


def homotopy_table(a: SupernaturalNumber, k_max: int) -> list[HomotopyRow]:
    """Homotopy groups pi_k of the unitary group and of the isotropy group
    of a pure state, for the infinite matrix algebra classified by a:
    zero in even degrees, Q(a) in odd degrees, with an extra Z factor in
    the isotropy group at k = 1. Raises ValueError unless
    1 <= k_max <= MAX_TABLE_K."""
    if not 1 <= k_max <= MAX_TABLE_K:
        raise ValueError(f"k_max must lie in [1, {MAX_TABLE_K}], got {k_max}")
    rows = []
    for k in range(1, k_max + 1):
        if k % 2 == 0:
            rows.append(HomotopyRow(k, PI_ZERO, PI_ZERO))
        elif k == 1:
            rows.append(HomotopyRow(k, PI_Q, PI_Z_X_Q))
        else:
            rows.append(HomotopyRow(k, PI_Q, PI_Q))
    return rows
