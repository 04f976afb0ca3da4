"""Exact polynomial calculus for ladder-family face counts.

Everything here is arbitrary-precision integer arithmetic: the f-polynomials
of the ladder complexes, their shifted variants, the degree-raising linear
map with its signed-Catalan closed form, and the affine-rank test.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from .complexes import count_f_vector
from .planar import build_ladder


class Poly:
    """Dense integer polynomial in one variable; immutable, canonical
    (no trailing zero coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError(f"shift by a negative power x^{k}")
        return Poly((0,) * k + self.coeffs)

    def substitute_x_minus_1(self) -> "Poly":
        """The polynomial p(x-1), by Horner's rule: acc <- acc * (x-1) + a."""
        acc = [0] * len(self.coeffs)
        for a in reversed(self.coeffs):
            for i in range(len(acc) - 1, 0, -1):
                acc[i] = acc[i - 1] - acc[i]
            acc[0] = a - acc[0]
        return Poly(acc)

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if k == 0:
                terms.append(str(a))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                terms.append(xk if a == 1 else f"-{xk}" if a == -1
                             else f"{a}{xk}")
        return "Poly(" + " + ".join(terms).replace("+ -", "- ") + ")"


X = Poly([0, 1])
ONE = Poly([1])


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def _ladder_f_base(n: int, bump: Optional[int]) -> Poly:
    """f-polynomial of a small ladder complex, counted by the tiling search."""
    if n == 0:
        return ONE
    return Poly(count_f_vector(build_ladder(n, bump=bump)))


@lru_cache(maxsize=None)
def f_polynomial(n: int, bump: Optional[int] = None) -> Poly:
    """The f-polynomial of the n-square ladder complex (optionally bumped at
    position ``bump``): counted at two bases, and above them F(n-1) +
    (1+x) F(n-2), read from this cache.  The cache fills upward, so no call
    nests two deep; reads use one key form, ``(m, bump)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if bump is not None and not 1 <= bump <= n:
        raise ValueError(f"bump {bump} out of range 1..{n}")
    # The recurrence in n at fixed bump is valid while the bump stays inside
    # the shorter ladders, so the bases sit at n = bump and n = bump + 1.
    lo = 0 if bump is None else bump
    if n <= lo + 1:
        return _ladder_f_base(n, bump)
    for m in range(lo + 2, n):
        f_polynomial(m, bump)
    return f_polynomial(n - 1, bump) + Poly([1, 1]) * f_polynomial(n - 2, bump)


@lru_cache(maxsize=None)
def p_polynomial(n: int, bump: Optional[int] = None) -> Poly:
    """Shifted f-polynomial p(x) = f(x-1)."""
    return f_polynomial(n, bump).substitute_x_minus_1()


# perfbench's tracer wraps fibpoly:p_raw; drop with that (ROADMAP item 0).
p_raw = p_polynomial


def p_closed_form(n: int) -> Poly:
    """Binomial closed form: the x^k coefficient is C(n+1-k, k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d = (n + 1) // 2
    return Poly([comb(n + 1 - k, k) for k in range(d + 1)])


@lru_cache(maxsize=None)
def _a_of_one(d: int) -> Poly:
    """A_d(1), from the definition A_d(P_(2d-1)) = P_(2d+1), not from the
    Catalan closed form checked against it.  As P_n(0) = 1, P_(2d-1) - 1 has
    no constant term, so ``apply_A``, which skips zero coefficients, reads
    only A_e(1) for e < d, filled upward first so no call nests two deep."""
    if d == 0:
        return Poly([1, 2])
    for e in range(d):
        _a_of_one(e)
    return (p_polynomial(2 * d + 1, None)
            - apply_A(d, p_polynomial(2 * d - 1, None) - ONE))


def apply_A(d: int, p: Poly) -> Poly:
    """Linear extension of the basis images x^k -> x^k * A_{d-k}(1)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    deg = p.degree
    if deg is None:
        return Poly()
    if deg > d:
        raise ValueError(f"degree {deg} exceeds the map's domain bound {d}")
    acc = Poly()
    for k, a in enumerate(p.coeffs):
        if a:
            acc = acc + _a_of_one(d - k).shift(k) * a
    return acc


def a_unit_closed_form(d: int, k: int) -> Poly:
    """Signed-Catalan closed form of the image of x^k: the interior
    coefficient of x^{m+1} is (-1)^m C_m."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    inner = [1, 2] + [(-1) ** m * catalan(m) for m in range(1, d - k + 1)]
    return Poly(inner).shift(k)


def catalan_identity_check(n: int, k: int) -> tuple[int, int, bool]:
    """Both sides of the alternating Catalan-binomial identity."""
    if not n >= k >= 1:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    lhs = comb(n, k)
    rhs = sum((-1) ** i * comb(n + 1 + i, k - i) * catalan(i)
              for i in range(k + 1))
    return lhs, rhs, lhs == rhs


def affine_rank(polys: Sequence[Poly], ambient_degree: int) -> int:
    """Dimension of the affine span of the polynomials, as points in
    coefficient space of degree <= ambient_degree."""
    if not polys:
        raise ValueError("need at least one polynomial")
    for p in polys:
        if p.degree is not None and p.degree > ambient_degree:
            raise ValueError(f"{p!r} exceeds ambient degree {ambient_degree}")
    base = polys[0]
    rows = [[(p - base)[k] for k in range(ambient_degree + 1)]
            for p in polys[1:]]
    return bareiss_rank(rows)


def bareiss_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(row) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    prev, r = 1, 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def multiset_no_consecutive_count(n: int, k: int,
                                  bump: Optional[int] = None) -> int:
    """k-element choices from {1..n} (with the bump element available twice)
    containing no two consecutive integers, by direct enumeration.

    The doubled element contributes two distinct copies; a choice may not use
    both copies at once (they stand for two squares glued along an edge).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if bump is not None and not 1 <= bump <= n:
        raise ValueError(f"bump {bump} out of range 1..{n}")
    total = 0
    for subset in itertools.combinations(range(1, n + 1), k):
        if any(b - a == 1 for a, b in zip(subset, subset[1:])):
            continue
        total += 2 if (bump is not None and bump in subset) else 1
    return total


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
