"""Symmetric functions in the power-sum basis.

The power-sum basis makes the two plethystic substitutions we need trivial
(``p_j`` composed with ``p_m`` is ``p_{jm}``), and Schur coefficients are a
character sum, so no straightening or Littlewood-Richardson machinery is
required anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .words import (
    Partition,
    check_partition,
    divisors,
    lie_dim,
    moebius,
    multichoose,
    multiplicity_profile,
    partition_union,
    partitions,
)


@dataclass(frozen=True)
class SymFun:
    """Homogeneous symmetric function of a fixed degree, power-sum coefficients.

    ``terms`` maps partitions of ``degree`` to rational coefficients; zero
    coefficients are never stored.
    """

    degree: int
    terms: dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for rho, c in self.terms.items():
            rho = check_partition(rho)
            if sum(rho) != self.degree:
                raise ValueError(f"{rho} is not a partition of {self.degree}")
            c = Fraction(c)
            if c != 0:
                cleaned[rho] = c
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero(degree: int) -> "SymFun":
        return SymFun(degree, {})

    @staticmethod
    def one() -> "SymFun":
        return SymFun(0, {(): Fraction(1)})

    def __add__(self, other: "SymFun") -> "SymFun":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        terms = dict(self.terms)
        for rho, c in other.terms.items():
            terms[rho] = terms.get(rho, Fraction(0)) + c
        return SymFun(self.degree, terms)

    def scale(self, c) -> "SymFun":
        c = Fraction(c)
        return SymFun(self.degree, {rho: c * v for rho, v in self.terms.items()})

    def __mul__(self, other: "SymFun") -> "SymFun":
        """Product; p_rho * p_tau = p_{rho union tau}."""
        terms: dict[Partition, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                key = partition_union(r1, r2)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return SymFun(self.degree + other.degree, terms)

# ---------------------------------------------------------------------------
# irreducible characters of the symmetric group


def _beta_set(mu: Partition, slots: int) -> tuple[int, ...]:
    parts = list(mu) + [0] * (slots - len(mu))
    return tuple(parts[i] + (slots - 1 - i) for i in range(slots))


def _beta_to_partition(beta: tuple[int, ...]) -> Partition:
    vals = sorted(beta, reverse=True)
    slots = len(vals)
    mu = [vals[i] - (slots - 1 - i) for i in range(slots)]
    return tuple(p for p in mu if p > 0)


@cache
def _mn_character(mu: Partition, rho: Partition) -> int:
    """Character value by border-strip (Murnaghan-Nakayama) recursion.

    Strips are removed on the beta-set: removing a strip of size r moves a
    bead from position b to b - r, with sign given by the number of beads
    jumped over.
    """
    if not rho:
        return 1 if not mu else 0
    r = rho[0]
    rest = rho[1:]
    beta = set(_beta_set(mu, max(len(mu), 1)))
    total = 0
    for b in sorted(beta):
        if b - r < 0 or (b - r) in beta:
            continue
        jumped = sum(1 for x in beta if b - r < x < b)
        new_beta = tuple(sorted(beta - {b} | {b - r}))
        total += (-1) ** jumped * _mn_character(_beta_to_partition(new_beta), rest)
    return total


def sn_character(mu: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group on the class of type rho."""
    mu, rho = check_partition(mu), check_partition(rho)
    if sum(mu) != sum(rho):
        raise ValueError("mu and rho must partition the same integer")
    return _mn_character(mu, rho)


# ---------------------------------------------------------------------------
# characters of graded Lie pieces and their symmetric powers


@cache
def lie_character(k: int) -> SymFun:
    """Character of the degree-k graded piece of the free Lie algebra.

    In power sums: (1/k) * sum_{t | k} moebius(t) * p_t^(k/t).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    terms: dict[Partition, Fraction] = {}
    for t in divisors(k):
        rho = (t,) * (k // t)
        terms[rho] = terms.get(rho, Fraction(0)) + Fraction(moebius(t), k)
    return SymFun(k, terms)


def plethysm_p(j: int, f: SymFun) -> SymFun:
    """Compose the j-th power sum with f: substitute p_m -> p_{j m}."""
    if j < 1:
        raise ValueError("j must be >= 1")
    terms = {tuple(j * part for part in rho): c for rho, c in f.terms.items()}
    return SymFun(j * f.degree, terms)


def plethysm_h(a: int, f: SymFun) -> SymFun:
    """Compose the a-th complete homogeneous function with f.

    Newton's recursion: a * h_a[f] = sum_{j=1..a} p_j[f] * h_{a-j}[f].
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    h: list[SymFun] = [SymFun.one()]
    p = [None] + [plethysm_p(j, f) for j in range(1, a + 1)]
    for n in range(1, a + 1):
        acc = SymFun.zero(n * f.degree)
        for j in range(1, n + 1):
            acc = acc + p[j] * h[n - j]
        h.append(acc.scale(Fraction(1, n)))
    return h[a]


@cache
def higher_lie_character(lam: Partition) -> SymFun:
    """Character of the graded module attached to lam.

    Product over part sizes i of h_{a_i}[ l_i ] where l_i is the degree-i
    Lie character and a_i the multiplicity of i in lam.
    """
    lam = check_partition(lam)
    result = SymFun.one()
    for i, a in sorted(multiplicity_profile(lam).items()):
        result = result * plethysm_h(a, lie_character(i))
    return result


def schur_expand(f: SymFun) -> dict[Partition, Fraction]:
    """Coefficients of f in the Schur basis.

    With f = sum_rho c_rho p_rho the Schur coefficient at mu is
    sum_rho c_rho * chi_mu(rho), by the self-duality of the power sums
    under the Hall pairing.
    """
    out: dict[Partition, Fraction] = {}
    for mu in partitions(f.degree):
        coeff = sum(
            (c * sn_character(mu, rho) for rho, c in f.terms.items()), Fraction(0)
        )
        if coeff != 0:
            out[mu] = coeff
    return out


@cache
def _thrall_coefficients(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    expansion = schur_expand(higher_lie_character(lam))
    out = []
    for mu, c in sorted(expansion.items(), reverse=True):
        if c.denominator != 1 or c < 0:
            raise ArithmeticError(
                f"non-integral or negative multiplicity {c} at {mu} for {lam}"
            )
        out.append((mu, int(c)))
    return tuple(out)


def thrall_coefficients(lam: Partition) -> dict[Partition, int]:
    """Multiplicities of the irreducible summands of the lam-graded module.

    Values are asserted to be nonnegative integers; a violation indicates an
    internal error, not bad input.  Partitions not in the returned map have
    multiplicity zero.
    """
    return dict(_thrall_coefficients(check_partition(lam)))


def w_module_dim(lam: Partition, d: int) -> int:
    """Dimension of the lam-graded module on a d-dimensional space."""
    lam = check_partition(lam)
    return math.prod(
        multichoose(lie_dim(d, i), a) for i, a in multiplicity_profile(lam).items()
    )

