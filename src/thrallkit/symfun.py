"""Symmetric functions in the power-sum basis.

The power-sum basis makes the two plethystic substitutions we need trivial
(``p_j`` composed with ``p_m`` is ``p_{jm}``), and Schur coefficients are a
character sum, so no straightening or Littlewood-Richardson machinery is
required anywhere.  A :class:`SymFun` holds integer numerators over one
denominator, and the characters of each degree come as one table, so a Schur
expansion is one integer dot product per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    partitions,
)


@dataclass(frozen=True)
class SymFun:
    """Homogeneous symmetric function of a fixed degree in power sums: a
    sparse map ``nums`` from partitions of ``degree`` to integer numerators
    over one denominator ``den >= 1``.

    Both are reduced to lowest terms and zero numerators are dropped, as a
    :class:`~thrallkit.tensors.Tensor` holds its entries, so equal functions
    have equal fields.
    """

    degree: int
    nums: dict[Partition, int]
    den: int = 1

    def __post_init__(self) -> None:
        if self.den < 1:
            raise ValueError(f"den must be >= 1, got {self.den}")
        for rho in self.nums:
            if sum(check_partition(rho)) != self.degree:
                raise ValueError(f"{rho} is not a partition of {self.degree}")
        # math.gcd also rejects numerators that are not integers
        g = math.gcd(self.den, *self.nums.values())
        object.__setattr__(self, "nums", {tuple(r): n // g for r, n in self.nums.items() if n})
        object.__setattr__(self, "den", self.den // g)

    def __add__(self, other: "SymFun") -> "SymFun":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        den = math.lcm(self.den, other.den)
        nums = {rho: n * (den // self.den) for rho, n in self.nums.items()}
        for rho, n in other.nums.items():
            nums[rho] = nums.get(rho, 0) + n * (den // other.den)
        return SymFun(self.degree, nums, den)

    def __mul__(self, other: "SymFun") -> "SymFun":
        """Product; p_rho * p_tau = p_{rho union tau}."""
        nums: dict[Partition, int] = {}
        for r1, n1 in self.nums.items():
            for r2, n2 in other.nums.items():
                key = tuple(sorted(r1 + r2, reverse=True))
                nums[key] = nums.get(key, 0) + n1 * n2
        return SymFun(self.degree + other.degree, nums, self.den * other.den)

# ---------------------------------------------------------------------------
# irreducible characters of the symmetric group


@cache
def _character_table(k: int) -> dict[Partition, dict[Partition, int]]:
    """chi^mu(rho) for every pair of partitions of k, by Murnaghan-Nakayama:
    rho's largest part r is removed from mu as a border strip, and the rest
    is read from the degree k - r table.

    Strips are removed on the beta-set of mu (part i plus the number of parts
    after it): removing a strip of size r moves a bead from b to b - r, with
    sign given by the number of beads jumped over.
    """
    if k == 0:
        return {(): {(): 1}}
    classes = partitions(k)
    table = {}
    for mu in classes:
        n = len(mu)
        beads = {p + n - 1 - i for i, p in enumerate(mu)}
        strips: dict[int, list[tuple[int, Partition]]] = {}
        row = {}
        for rho in classes:
            r = rho[0]
            if r not in strips:
                strips[r] = []
                for b in beads:
                    if b - r >= 0 and b - r not in beads:
                        moved = sorted(beads - {b} | {b - r}, reverse=True)
                        nu = tuple(x - (n - 1 - i) for i, x in enumerate(moved) if x > n - 1 - i)
                        jumped = sum(1 for x in beads if b - r < x < b)
                        strips[r].append(((-1) ** jumped, nu))
            lower = _character_table(k - r)
            row[rho] = sum(s * lower[nu][rho[1:]] for s, nu in strips[r])
        table[mu] = row
    return table


def sn_character(mu: Partition, rho: Partition) -> int:
    """Irreducible character of the symmetric group on the class of type rho."""
    mu, rho = check_partition(mu), check_partition(rho)
    if sum(mu) != sum(rho):
        raise ValueError("mu and rho must partition the same integer")
    return _character_table(sum(mu))[mu][rho]


# ---------------------------------------------------------------------------
# characters of graded Lie pieces and their symmetric powers


def lie_character(k: int) -> SymFun:
    """Character of the degree-k graded piece of the free Lie algebra.

    In power sums: (1/k) * sum_{t | k} moebius(t) * p_t^(k/t).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return SymFun(k, {(t,) * (k // t): moebius(t) for t in divisors(k)}, k)


def plethysm_p(j: int, f: SymFun) -> SymFun:
    """Compose the j-th power sum with f: substitute p_m -> p_{j m}."""
    if j < 1:
        raise ValueError("j must be >= 1")
    nums = {tuple(j * part for part in rho): n for rho, n in f.nums.items()}
    return SymFun(j * f.degree, nums, f.den)


def plethysm_h(a: int, f: SymFun) -> SymFun:
    """Compose the a-th complete homogeneous function with f.

    Newton's recursion: a * h_a[f] = sum_{j=1..a} p_j[f] * h_{a-j}[f].
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    h: list[SymFun] = [SymFun(0, {(): 1})]
    p = [None] + [plethysm_p(j, f) for j in range(1, a + 1)]
    for n in range(1, a + 1):
        acc = SymFun(n * f.degree, {})
        for j in range(1, n + 1):
            acc = acc + p[j] * h[n - j]
        h.append(SymFun(acc.degree, acc.nums, acc.den * n))
    return h[a]


def higher_lie_character(lam: Partition) -> SymFun:
    """Character of the graded module attached to lam.

    Product over part sizes i of h_{a_i}[ l_i ] where l_i is the degree-i
    Lie character and a_i the multiplicity of i in lam.
    """
    lam = check_partition(lam)
    result = SymFun(0, {(): 1})
    for i, a in sorted(multiplicity_profile(lam).items()):
        result = result * plethysm_h(a, lie_character(i))
    return result


def schur_expand(f: SymFun) -> dict[Partition, Fraction]:
    """Coefficients of f in the Schur basis.

    With f = sum_rho c_rho p_rho the Schur coefficient at mu is
    sum_rho c_rho * chi_mu(rho), by the self-duality of the power sums
    under the Hall pairing: one integer dot product per row of the table.
    """
    out: dict[Partition, Fraction] = {}
    for mu, row in _character_table(f.degree).items():
        n = sum(c * row[rho] for rho, c in f.nums.items())
        if n:
            out[mu] = Fraction(n, f.den)
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

