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
from functools import cache
from types import MappingProxyType

from .words import (
    Partition,
    check_partition,
    divisors,
    moebius,
    multiplicity_profile,
    partitions,
    reduced_mapping,
    value_type,
)


@value_type
class SymFun:
    """Homogeneous symmetric function of a fixed degree in power sums: a
    sparse map ``nums`` from partitions of ``degree`` to integer numerators
    over one denominator ``den >= 1``.

    Both are reduced to lowest terms and zero numerators are dropped, as a
    :class:`~thrallkit.tensors.Tensor` holds its entries, so equal functions
    have equal fields; ``nums`` is a read-only mapping.
    """

    degree: int
    nums: MappingProxyType[Partition, int]
    den: int

    def __init__(self, degree: int, nums: dict[Partition, int], den: int = 1) -> None:
        if den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        for rho in nums:
            if sum(check_partition(rho)) != degree:
                raise ValueError(f"{rho} is not a partition of {degree}")
        self._reduce((degree, {tuple(r): n for r, n in nums.items()}, den))

    def _reduce(self, fields) -> None:
        """Write the fields ``(degree, nums, den)``, ``nums`` and ``den`` in lowest terms."""
        degree, nums, den = fields
        nums, den = reduced_mapping(nums, den)
        self.__dict__.update(degree=degree, nums=nums, den=den)

    def __add__(self, other: "SymFun") -> "SymFun":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        den = math.lcm(self.den, other.den)
        nums = {rho: n * (den // self.den) for rho, n in self.nums.items()}
        for rho, n in other.nums.items():
            nums[rho] = nums.get(rho, 0) + n * (den // other.den)
        return SymFun._built(self.degree, nums, den)

    def __mul__(self, other: "SymFun") -> "SymFun":
        """Product; p_rho * p_tau = p_{rho union tau}."""
        nums: dict[Partition, int] = {}
        for r1, n1 in self.nums.items():
            for r2, n2 in other.nums.items():
                key = tuple(sorted(r1 + r2, reverse=True))
                nums[key] = nums.get(key, 0) + n1 * n2
        return SymFun._built(self.degree + other.degree, nums, self.den * other.den)

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
    return SymFun._built(j * f.degree, nums, f.den)


def plethysm_h(a: int, f: SymFun) -> SymFun:
    """Compose the a-th complete homogeneous function with f.

    Newton's recursion: a * h_a[f] = sum_{j=1..a} p_j[f] * h_{a-j}[f].
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    h: list[SymFun] = [SymFun._built(0, {(): 1}, 1)]
    p = [None] + [plethysm_p(j, f) for j in range(1, a + 1)]
    for n in range(1, a + 1):
        acc = sum((p[j] * h[n - j] for j in range(1, n + 1)), SymFun._built(n * f.degree, {}, 1))
        h.append(SymFun._built(acc.degree, acc.nums, acc.den * n))
    return h[a]


def higher_lie_character(lam: Partition) -> SymFun:
    """Character of the graded module attached to lam.

    Product over part sizes i of h_{a_i}[ l_i ] where l_i is the degree-i
    Lie character and a_i the multiplicity of i in lam.
    """
    lam = check_partition(lam)
    result = SymFun._built(0, {(): 1}, 1)
    for i, a in sorted(multiplicity_profile(lam).items()):
        result = result * plethysm_h(a, lie_character(i))
    return result


def _schur_numerators(f: SymFun):
    """The nonzero Schur coefficients of f as ``(mu, n)``, integer
    numerators ``n`` over ``f.den``.

    With f = sum_rho c_rho p_rho the Schur coefficient at mu is
    sum_rho c_rho * chi_mu(rho), by the self-duality of the power sums
    under the Hall pairing: one integer dot product per row of the table.
    """
    for mu, row in _character_table(f.degree).items():
        n = sum(c * row[rho] for rho, c in f.nums.items())
        if n:
            yield mu, n


def schur_expand(f: SymFun) -> dict[Partition, Fraction]:
    """Coefficients of f in the Schur basis, from :func:`_schur_numerators`."""
    from fractions import Fraction

    return {mu: Fraction(n, f.den) for mu, n in _schur_numerators(f)}


def thrall_coefficients(lam: Partition) -> dict[Partition, int]:
    """Multiplicities of the irreducible summands of the lam-graded module,
    in descending order of mu.

    Values are asserted to be nonnegative integers; a violation indicates an
    internal error, not bad input.  Partitions not in the returned map have
    multiplicity zero.
    """
    lam = check_partition(lam)
    f = higher_lie_character(lam)
    out = {}
    for mu, n in sorted(_schur_numerators(f), reverse=True):
        c, r = divmod(n, f.den)
        if r or c < 0:
            raise ArithmeticError(
                f"non-integral or negative multiplicity {n}/{f.den} at {mu} for {lam}"
            )
        out[mu] = c
    return out
