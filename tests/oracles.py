"""Independent oracles shared by test modules.

These deliberately avoid the library's own computational paths: signatures
come from direct polynomial integration, determinants from the Leibniz sum
and matrix rank from their minors, Lyndon coordinates from a dense exact
solve, the truncated exp and log from
Fraction series-product power sums, row reduction from Gauss-Jordan
elimination over Fractions, the slot action from a dense scatter of integer
numerators, the graded decomposition from one dense solve, the standard
bracketings of Lyndon words by concatenating word tuples, the graded projector
family from an exact solve in the multilinear Lyndon-bracket bases and the
column-first Young symmetrizer from its double sum, the group-algebra
product from tuple compositions and Fraction products, the characters
from the Murnaghan-Nakayama recursion one pair at a time, the Lie
character's Schur multiplicities from major indices of tableaux, the central
idempotents from Fraction character values, the dual slot action
on functionals and the Lie levels from term-by-term Fraction sums, and the
graded bases, the f_lambda summands and the Lie bracket from dense Fraction
tensor products, the determinant-one invariants from the nullspace of the
infinitesimal conditions, the standard polytabloid rows by scanning every
balanced word for each tableau's column determinants, the weight-shape
table by grouping every word by content and relabelling each word by its
base-d digits, Lie membership from
Dynkin's criterion and the rank-one test from single-slot flattening ranks,
Lyndon words from their rotations and shuffles from the positions of the
first word, so the main implementations are checked against genuinely
different arithmetic.
"""

import functools
import itertools
import math
from fractions import Fraction
from functools import reduce

from thrallkit import linalg
from thrallkit.free_lie import (
    LieElement,
    lie_coordinates,
    lyndon_bracketing,
)
from thrallkit.group_algebra import GroupAlgebraElement, higher_lie_idempotent
from thrallkit.permutations import (
    all_permutations,
    compose,
    cycle_type,
    inverse,
    sign,
    subgroup_fixing,
)
from thrallkit.rank_variety import RankOneResult
from thrallkit.shuffle_sig import PiecewiseLinearPath, WordFunctional
from thrallkit.tensors import (
    Tensor,
    TensorSeries,
    tensor_product,
)
from thrallkit.words import (
    Word,
    all_words,
    check_partition,
    distinct_orderings,
    index_to_word,
    lyndon_words,
    multiplicity_profile,
    num_standard,
    partitions,
    standard_tableaux,
    word_to_index,
)


# ---------------------------------------------------------------------------
# helpers that only the tests use (they were public library API until no
# library path, script or benchmark called them)


def perm_to_word(p):
    """One-line word with 1-based letters, e.g. id -> (1, 2, .., k)."""
    return tuple(v + 1 for v in p)


def word_to_perm(word):
    """The permutation whose one-line word (1-based letters) is ``word``."""
    return tuple(x - 1 for x in word)


def basis_tensor(d: int, word) -> Tensor:
    """The coordinate tensor e_word: 1 at ``word``, 0 elsewhere."""
    nums = [0] * d ** len(word)
    nums[word_to_index(tuple(word), d)] = 1
    return Tensor(d, len(word), nums, 1)


def slot_permutation(perm, coeff=1) -> GroupAlgebraElement:
    """The one-term element ``coeff * perm``, whose ``ga_act`` is the slot
    action of ``perm`` scaled by ``coeff``."""
    return GroupAlgebraElement(len(perm), {tuple(perm): coeff})


def random_tensor(d: int, k: int, rng, bound: int = 5) -> Tensor:
    """Uniform small-integer-coefficient tensor from an explicit RNG."""
    return Tensor(d, k, [rng.randint(-bound, bound) for _ in range(d**k)], 1)


def concatenate_paths(x: PiecewiseLinearPath, y: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Translate ``y`` to start at the endpoint of ``x`` and append it."""
    if x.d != y.d:
        raise ValueError("dimension mismatch")
    shift = [e - s for e, s in zip(x.points[-1], y.points[0])]
    moved = [tuple(a + da for a, da in zip(p, shift)) for p in y.points[1:]]
    return PiecewiseLinearPath(x.d, x.points + tuple(moved))


def apply_matrix(g, tensor: Tensor) -> Tensor:
    """Apply the d x d matrix g to every slot (the diagonal action), in Fractions."""
    d, k = tensor.d, tensor.k
    if len(g) != d or any(len(row) != d for row in g):
        raise ValueError("matrix must be d x d")
    entries = list(tensor.entries)
    for slot in range(k):
        stride = d ** (k - slot - 1)
        new = [Fraction(0)] * len(entries)
        for i in range(len(entries)):
            letter = i // stride % d
            base = i - letter * stride
            new[i] = sum(
                (Fraction(g[letter][j]) * entries[base + j * stride] for j in range(d)), Fraction(0)
            )
        entries = new
    return Tensor(d, k, tuple(entries))


def evaluate_on_tensor(beta: WordFunctional, tensor: Tensor) -> Fraction:
    """The functional on one homogeneous level: its words of that length only."""
    return sum((c * tensor[w] for w, c in beta.terms.items() if len(w) == tensor.k), Fraction(0))


def leibniz_determinant(m) -> Fraction:
    """Determinant as the signed sum over permutations (Leibniz)."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def check_invariance(beta: WordFunctional, g, tensor: Tensor) -> bool:
    """Exact test of beta(g . T) == beta(T) for a determinant-one matrix."""
    if leibniz_determinant(g) != 1:
        raise ValueError("matrix must have determinant exactly 1")
    return evaluate_on_tensor(beta, apply_matrix(g, tensor)) == evaluate_on_tensor(beta, tensor)


def series_product(s: TensorSeries, t: TensorSeries) -> TensorSeries:
    """Product in the truncated tensor algebra; levels above k_max are dropped."""
    if s.d != t.d or s.k_max != t.k_max:
        raise ValueError("series shape mismatch")
    levels = []
    for m in range(s.k_max + 1):
        acc = Tensor(s.d, m, [0] * s.d**m)
        for i in range(m + 1):
            a, b = s.levels[i], t.levels[m - i]
            if a.is_zero() or b.is_zero():
                continue
            acc = acc + tensor_product(a, b)
        levels.append(acc)
    return TensorSeries(s.d, tuple(levels))


def flattening_matrix(tensor: Tensor, split) -> list:
    """Matrix of the flattening grouping the 1-based slots in ``split`` as rows."""
    k, d = tensor.k, tensor.d
    split = set(split)
    if not split or split >= set(range(1, k + 1)) or not split <= set(range(1, k + 1)):
        raise ValueError(f"split must be a nonempty proper subset of 1..{k}")
    row_slots = sorted(s - 1 for s in split)
    col_slots = [s for s in range(k) if s not in row_slots]
    nrows, ncols = d ** len(row_slots), d ** len(col_slots)
    matrix = [[Fraction(0)] * ncols for _ in range(nrows)]
    for i, c in enumerate(tensor.entries):
        if c == 0:
            continue
        w = index_to_word(i, d, k)
        r = word_to_index(tuple(w[s] for s in row_slots), d)
        col = word_to_index(tuple(w[s] for s in col_slots), d)
        matrix[r][col] = c
    return matrix


def flattening_rank(tensor: Tensor, split) -> int:
    """Exact rank of the flattening determined by ``split``."""
    return linalg.rank(flattening_matrix(tensor, split))


def nullspace(matrix) -> list:
    """Basis of the right nullspace, one vector per free column."""
    m, pivots = gauss_jordan_rref(matrix)
    ncols = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def identity_matrix(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _poly_integrate(coeffs):
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]


def _poly_eval(coeffs, t):
    return sum((c * t**i for i, c in enumerate(coeffs)), Fraction(0))


def integration_oracle(path: PiecewiseLinearPath, k_max: int) -> TensorSeries:
    """Signature levels from the integral recursion, one segment at a time.

    On a segment with constant velocity v, the integral for word w + (a,)
    grows by v_a times the running integral for w; everything stays a
    polynomial in the segment parameter, integrated exactly.
    """
    words = [w for k in range(1, k_max + 1) for w in all_words(path.d, k)]
    values = {w: Fraction(0) for w in words}
    for start, end in zip(path.points, path.points[1:]):
        v = [e - s for s, e in zip(start, end)]
        polys: dict = {(): [Fraction(1)]}
        for w in words:
            prefix, last = w[:-1], w[-1]
            integrand = [c * v[last - 1] for c in polys[prefix]]
            poly = _poly_integrate(integrand)
            poly[0] = values[w]
            polys[w] = poly
        for w in words:
            values[w] = _poly_eval(polys[w], Fraction(1))
    levels = {
        k: Tensor.from_dict(path.d, k, {w: values[w] for w in all_words(path.d, k)})
        for k in range(1, k_max + 1)
    }
    levels[0] = Tensor.scalar(path.d, 1)
    return TensorSeries.from_levels(path.d, k_max, levels)


def chen_numerators_reference(path: PiecewiseLinearPath, k_max: int):
    """Chen's identity ``S <- S (x) exp(v)`` one segment at a time, on flat
    lists of integer numerators over ``m! q^m``, with no run merging or
    packing: the ``(nums, dens)`` that ``shuffle_sig._chen_numerators``
    must return."""
    d = path.d
    q = math.lcm(*(x.denominator for p in path.points for x in p))
    nums = [[1]] + [[0] * d**m for m in range(1, k_max + 1)]
    for a, b in zip(path.points, path.points[1:]):
        u = [int((y - x) * q) for x, y in zip(a, b)]
        if not any(u):
            continue
        for m in range(k_max, 0, -1):
            acc = nums[0]
            for j in range(1, m + 1):
                c, lower = math.comb(m, j), iter(nums[j])
                # the entry of acc (x) u at word (p, letter) sits at index p * d + letter
                acc = [a * x + c * next(lower) for a in acc for x in u]
            nums[m] = acc
    return nums, [math.factorial(m) * q**m for m in range(k_max + 1)]


def unit_series(d: int, k_max: int) -> TensorSeries:
    """The series 1: level 0 is 1, every other level 0."""
    return TensorSeries.from_levels(d, k_max, {0: Tensor.scalar(d, 1)})


def series_exp(series: TensorSeries) -> TensorSeries:
    """Truncated exponential as the Fraction power sum of series products."""
    if not series.level(0).is_zero():
        raise ValueError("exp requires level 0 equal to 0")
    power = unit_series(series.d, series.k_max)
    levels = power.levels
    for n in range(1, series.k_max + 1):
        power = series_product(power, series)
        c = Fraction(1, math.factorial(n))
        levels = [a + b.scale(c) for a, b in zip(levels, power.levels)]
    return TensorSeries(series.d, tuple(levels))


def series_log(series: TensorSeries) -> TensorSeries:
    """Truncated logarithm as the Fraction power sum of series products."""
    if series.level(0) != Tensor.scalar(series.d, 1):
        raise ValueError("log requires level 0 equal to 1")
    power = unit_series(series.d, series.k_max)
    shifted = TensorSeries.from_levels(series.d, series.k_max, dict(enumerate(series.levels[1:], 1)))
    levels = TensorSeries.from_levels(series.d, series.k_max, {}).levels
    for n in range(1, series.k_max + 1):
        power = series_product(power, shifted)
        c = Fraction((-1) ** (n + 1), n)
        levels = [a + b.scale(c) for a, b in zip(levels, power.levels)]
    return TensorSeries(series.d, tuple(levels))


def dynkin_is_lie_element(tensor: Tensor) -> bool:
    """Dynkin criterion: the left-to-right bracketing multiplies by k.

    The bracketing replaces each word w_1 .. w_k by
    [[..[e_{w_1}, e_{w_2}], ..], e_{w_k}]; step j brackets slot j+1 onto
    slots 1..j, subtracting the tensor with slot j+1 moved in front of slots
    1..j, which is the slot action of the cycle (1 2 .. j+1), applied by
    :func:`scatter_permute_slots`.
    """
    if tensor.k < 1:
        return False
    result = tensor
    for j in range(1, tensor.k):
        sigma = tuple((i + 1) % (j + 1) if i <= j else i for i in range(tensor.k))
        result = result + scatter_permute_slots(result, sigma).scale(-1)
    return result == tensor.scale(tensor.k)


def flattening_is_rank_one(tensor: Tensor) -> RankOneResult:
    """Rank one iff every single-slot flattening has rank one; each factor is
    the first nonzero column of its slot's flattening, factors 2..k scaled to
    leading coordinate one and the first to the tensor's scale.  Orders 0
    and 1 have no proper flattening: the tensor is its own factor."""
    k, d = tensor.k, tensor.d
    if k <= 1:
        return RankOneResult(True, (tensor.entries,))
    if any(flattening_rank(tensor, {slot}) != 1 for slot in range(1, k + 1)):
        return RankOneResult(False)
    factors = []
    for slot in range(1, k + 1):
        m = flattening_matrix(tensor, {slot})
        col = next(c for c in zip(*m) if any(x != 0 for x in c))
        lead = next(x for x in col if x != 0) if slot > 1 else 1
        factors.append(tuple(x / lead for x in col))
    rebuilt = Tensor.from_vector(d, factors[0])
    for vec in factors[1:]:
        rebuilt = tensor_product(rebuilt, Tensor.from_vector(d, vec))
    at = next(i for i, c in enumerate(tensor.entries) if c != 0)
    ratio = tensor.entries[at] / rebuilt.entries[at]
    assert rebuilt.scale(ratio) == tensor
    factors[0] = tuple(ratio * x for x in factors[0])
    return RankOneResult(True, tuple(factors))


def dense_lie_coordinates(tensor: Tensor):
    """Lyndon coordinates by solving against the dense bracketing matrix.

    The d^k x L system is overdetermined, so a solution is accepted only if
    it rebuilds the tensor exactly; None when the tensor is not a Lie element.
    """
    words = lyndon_words(tensor.d, tensor.k)
    basis = [lyndon_bracketing(w, tensor.d) for w in words]
    matrix = [[b.entries[i] for b in basis] for i in range(tensor.d**tensor.k)]
    coords = gauss_jordan_solve(matrix, list(tensor.entries))
    if coords is None:
        return None
    acc = Tensor(tensor.d, tensor.k, [0] * tensor.d**tensor.k)
    for c, b in zip(coords, basis):
        if c != 0:
            acc = acc + b.scale(c)
    if acc != tensor:
        return None
    return {w: c for w, c in zip(words, coords) if c != 0}


def group_like_oracle(series: TensorSeries) -> bool:
    """The shuffle identity T_a * T_b = T_(a shuffle b) over all word pairs,
    with interleavings enumerated by :func:`shuffle_oracle`."""
    d, k_max = series.d, series.k_max
    words = [w for k in range(1, k_max) for w in all_words(d, k)]
    for a, b in itertools.combinations_with_replacement(words, 2):
        if len(a) + len(b) > k_max:
            continue
        level = series.level(len(a) + len(b))
        lhs = sum(c * level[w] for w, c in shuffle_oracle(a, b).items())
        if lhs != series.level(len(a))[a] * series.level(len(b))[b]:
            return False
    return True


def rank_by_minors(m) -> int:
    """Rank as the size of the largest nonvanishing minor."""
    n = len(m)
    for size in range(n, 0, -1):
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[m[i][j] for j in cols] for i in rows]
                if leibniz_determinant(sub) != 0:
                    return size
    return 0


def is_lyndon_by_rotations(word) -> bool:
    """A Lyndon word is nonempty and strictly smaller than each of its
    proper rotations."""
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def longest_lyndon_prefix_by_rotations(word) -> int:
    """The length of the longest prefix that :func:`is_lyndon_by_rotations` accepts."""
    return max(p for p in range(1, len(word) + 1) if is_lyndon_by_rotations(word[:p]))


def shuffle_oracle(a, b) -> dict:
    """All interleavings, by choosing the positions of the first word."""
    m, n = len(a), len(b)
    counts: dict = {}
    for positions in itertools.combinations(range(m + n), m):
        word = [None] * (m + n)
        for letter, pos in zip(a, positions):
            word[pos] = letter
        rest = iter(b)
        for i in range(m + n):
            if word[i] is None:
                word[i] = next(rest)
        word = tuple(word)
        counts[word] = counts.get(word, 0) + 1
    return counts


def reduce_path(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Merge adjacent parallel or antiparallel increments, to a fixpoint.

    Adjacent increments on one line commute in the tensor algebra, so each
    merge preserves the signature exactly; the result has no two consecutive
    increments on a common line.  A path is segment-equivalent iff the
    reduced path has at most one nonzero increment.
    """
    points = list(path.points)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(points):
            inc = [b - a for a, b in zip(points[i], points[i + 1])]
            if all(x == 0 for x in inc):
                del points[i + 1]
                changed = True
                continue
            i += 1
        i = 0
        while i + 2 < len(points):
            u = [b - a for a, b in zip(points[i], points[i + 1])]
            v = [b - a for a, b in zip(points[i + 1], points[i + 2])]
            parallel = all(
                u[a] * v[b] - u[b] * v[a] == 0
                for a in range(len(u))
                for b in range(a + 1, len(u))
            )
            if parallel:
                del points[i + 1]
                changed = True
            else:
                i += 1
    return PiecewiseLinearPath(path.d, tuple(points))


def is_segment_equivalent(path: PiecewiseLinearPath) -> bool:
    return len(reduce_path(path).points) <= 2


def gauss_jordan_rref(matrix):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions,
    dividing each pivot row by its pivot."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def gauss_jordan_solve(matrix, rhs):
    """Particular solution (free variables zero) from the augmented RREF, or None."""
    ncols = len(matrix[0]) if matrix else 0
    red, pivots = gauss_jordan_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def scatter_permute_slots(tensor: Tensor, sigma) -> Tensor:
    """Slot action by scattering each nonzero entry at w to w o sigma^{-1}."""
    d, k = tensor.d, tensor.k
    inv = inverse(sigma)
    entries = [Fraction(0)] * d**k
    for i, c in enumerate(tensor.entries):
        if c == 0:
            continue
        w = index_to_word(i, d, k)
        entries[word_to_index(tuple(w[inv[j]] for j in range(k)), d)] = c
    return Tensor(d, k, tuple(entries))


def dense_ga_act(x, tensor: Tensor) -> Tensor:
    """sum_sigma x_sigma * (slot action of sigma on T) on integer numerators
    over ``x.den * tensor.den``, scattering each nonzero entry at w to
    w o sigma^{-1} once per term."""
    d, k = tensor.d, tensor.k
    moves = [(inverse(perm), c) for perm, c in x.nums.items()]
    nums = [0] * d**k
    for i, v in enumerate(tensor.nums):
        if v == 0:
            continue
        w = index_to_word(i, d, k)
        for inv, c in moves:
            nums[word_to_index(tuple(w[inv[j]] for j in range(k)), d)] += c * v
    return Tensor(d, k, nums, x.den * tensor.den)


def dense_operator_rank(x, d: int) -> int:
    """Rank of the images of every basis tensor, by one dense row reduction."""
    images = [
        list(dense_ga_act(x, basis_tensor(d, w)).entries) for w in all_words(d, x.k)
    ]
    return len(gauss_jordan_rref(images)[1])


def dense_solve_decompose(tensor: Tensor) -> dict:
    """Graded components from one dense solve in the concatenated graded bases."""
    d, k = tensor.d, tensor.k
    labelled = [(lam, vec) for lam in partitions(k) for vec in dense_w_lambda_basis(lam, d)]
    n = d**k
    rows = [[vec.entries[i] for _, vec in labelled] for i in range(n)]
    coords = gauss_jordan_solve(rows, list(tensor.entries))
    out = {lam: Tensor(d, k, [0] * d**k) for lam in partitions(k)}
    for (lam, vec), c in zip(labelled, coords):
        if c != 0:
            out[lam] = out[lam] + vec.scale(c)
    return out


def _lyndon_words_on_set(letters):
    """Lyndon words using each of the given distinct letters exactly once.

    A word on distinct letters is Lyndon iff it starts with the smallest one.
    """
    smallest = min(letters)
    rest = sorted(x for x in letters if x != smallest)
    return [(smallest,) + perm for perm in itertools.permutations(rest)]


def _set_partitions_with_sizes(elements, sizes):
    """Partitions of ``elements`` into unordered blocks of the given sizes."""
    if not sizes:
        if not elements:
            yield ()
        return
    first = elements[0]
    for s in sorted(set(sizes), reverse=True):
        remaining_sizes = list(sizes)
        remaining_sizes.remove(s)
        for combo in itertools.combinations(elements[1:], s - 1):
            block = (first,) + combo
            rest = tuple(e for e in elements if e not in block)
            for tail in _set_partitions_with_sizes(rest, tuple(remaining_sizes)):
                yield (block,) + tail


def _sparse_product(factors):
    term = {(): 1}
    for factor in factors:
        new = {}
        for wa, ca in term.items():
            for wb, cb in factor.items():
                key = wa + wb
                new[key] = new.get(key, 0) + ca * cb
        term = new
    return term


@functools.cache
def lyndon_bracketing_by_words(word):
    """The standard bracketing of a Lyndon word as a sparse map on word
    tuples: ``[b(u), b(v)]`` for ``v`` the least proper suffix, expanded as
    ``b(u) b(v) - b(v) b(u)`` by concatenating tuples."""
    if len(word) == 1:
        return {word: 1}
    v = min(word[i:] for i in range(1, len(word)))
    bu, bv = lyndon_bracketing_by_words(word[: len(word) - len(v)]), lyndon_bracketing_by_words(v)
    out = {}
    for sign, first, second in ((1, bu, bv), (-1, bv, bu)):
        for w, c in _sparse_product([first, second]).items():
            out[w] = out.get(w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def _multilinear_w_basis(k):
    """Multilinear part of each graded subspace, as sparse word vectors."""
    elements = tuple(range(1, k + 1))
    out = {}
    for lam in partitions(k):
        vectors = []
        seen = set()
        for blocks in _set_partitions_with_sizes(elements, lam):
            key = tuple(sorted(tuple(sorted(b)) for b in blocks))
            if key in seen:
                continue
            seen.add(key)
            blocks_sorted = sorted(key, key=lambda b: (len(b), b))
            choices = [_lyndon_words_on_set(tuple(block)) for block in blocks_sorted]
            for words in itertools.product(*choices):
                brackets = [lyndon_bracketing_by_words(w) for w in words]
                vec = {}
                for order in itertools.permutations(range(len(words))):
                    for w, c in _sparse_product([brackets[i] for i in order]).items():
                        vec[w] = vec.get(w, 0) + c
                vectors.append({w: c for w, c in vec.items() if c})
        out[lam] = vectors
    return out


def solve_lie_idempotents(k):
    """The graded projector family by an exact solve.

    Decomposes e_1 x .. x e_k inside the k!-dimensional span of the
    permutation words, in the multilinear parts of the graded bases (symmetrized
    products of Lyndon brackets); the component in each graded piece, read
    through the slot action, is that piece's projector.
    """
    basis = _multilinear_w_basis(k)
    perm_words = [perm_to_word(p) for p in all_permutations(k)]
    word_index = {w: i for i, w in enumerate(perm_words)}
    n = len(perm_words)
    columns = []
    column_labels = []
    for lam in partitions(k):
        for vec in basis[lam]:
            col = [Fraction(0)] * n
            for w, c in vec.items():
                col[word_index[w]] = Fraction(c)
            columns.append(col)
            column_labels.append(lam)
    if len(columns) != n:
        raise ArithmeticError("multilinear graded bases do not fill the weight space")
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    iota = tuple(range(1, k + 1))
    rhs = [Fraction(1) if w == iota else Fraction(0) for w in perm_words]
    coords = gauss_jordan_solve(matrix, rhs)
    if coords is None:
        raise ArithmeticError("projector solve is inconsistent")
    out = {}
    for lam in partitions(k):
        component = [Fraction(0)] * n
        for j, label in enumerate(column_labels):
            if label == lam and coords[j] != 0:
                col = columns[j]
                for i in range(n):
                    component[i] += coords[j] * col[i]
        # component = projection of e_iota; the slot action sends e_iota to
        # e_{word(sigma^{-1})}, so the coefficient of sigma sits at that word
        terms = {}
        for i, w in enumerate(perm_words):
            if component[i] != 0:
                terms[inverse(word_to_perm(w))] = component[i]
        out[lam] = GroupAlgebraElement(k, terms)
    return out


def column_first_young_symmetrizer(tableau):
    """Signed column sum times row sum, by the double sum over both groups."""
    k = tableau.size
    rows = [tuple(r) for r in tableau.rows]
    cols = [tableau.column(j) for j in range(tableau.shape[0])]
    terms = {}
    for s, _ in subgroup_fixing(cols, k):
        for t, _ in subgroup_fixing(rows, k):
            st = compose(s, t)
            terms[st] = terms.get(st, Fraction(0)) + sign(s)
    return GroupAlgebraElement(k, terms)


def fraction_ga_multiply(x, y):
    """Convolution product with (sigma tau)(i) = sigma(tau(i)), one tuple
    composition and one Fraction product per pair of terms."""
    if x.k != y.k:
        raise ValueError(f"degree mismatch: {x.k} vs {y.k}")
    terms = {}
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            pq = compose(p, q)
            terms[pq] = terms.get(pq, Fraction(0)) + a * b
    return GroupAlgebraElement(x.k, terms)


def fraction_ga_sum(k: int, elements) -> GroupAlgebraElement:
    """The sum of degree-k group-algebra elements, one Fraction addition per
    term."""
    terms = {}
    for x in elements:
        if x.k != k:
            raise ValueError(f"degree mismatch: {x.k} vs {k}")
        for p, c in x.terms.items():
            terms[p] = terms.get(p, Fraction(0)) + c
    return GroupAlgebraElement(k, terms)


def fraction_central_idempotent(mu):
    """(f^mu / k!) chi^mu(cycle type of sigma) at each sigma, in Fractions,
    with the characters from :func:`mn_character`."""
    k = sum(mu)
    norm = Fraction(num_standard(mu), math.factorial(k))
    return GroupAlgebraElement(
        k, {p: norm * mn_character(mu, cycle_type(p)) for p in all_permutations(k)}
    )


def _beta_set(mu, slots: int) -> tuple:
    parts = list(mu) + [0] * (slots - len(mu))
    return tuple(parts[i] + (slots - 1 - i) for i in range(slots))


def _beta_to_partition(beta) -> tuple:
    vals = sorted(beta, reverse=True)
    slots = len(vals)
    mu = [vals[i] - (slots - 1 - i) for i in range(slots)]
    return tuple(p for p in mu if p > 0)


@functools.cache
def mn_character(mu, rho) -> int:
    """Character value chi^mu(rho) by border-strip (Murnaghan-Nakayama)
    recursion, one (mu, rho) pair at a time.

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
        total += (-1) ** jumped * mn_character(_beta_to_partition(new_beta), rest)
    return total


def major_index(tableau) -> int:
    """Sum of the descents i of a standard tableau: i + 1 sits in a lower row than i."""
    row_of = {x: i for i, row in enumerate(tableau.rows) for x in row}
    return sum(i for i in range(1, tableau.size) if row_of[i + 1] > row_of[i])


def kraskiewicz_weyman_multiplicity(mu) -> int:
    """Multiplicity of the irreducible mu in the degree-k Lie character:
    the standard tableaux of shape mu whose major index is 1 mod k
    (Kraskiewicz & Weyman, Bayreuth. Math. Schr. 63, 2001)."""
    k = sum(mu)
    return sum(1 for t in standard_tableaux(mu) if major_index(t) % k == 1 % k)


def verify_refinement(parts, whole) -> bool:
    """Whether the given elements are idempotent, pairwise orthogonal and
    sum to ``whole``: a check of a user-supplied splitting of a projector
    (splittings of an isotypic block into irreducible copies are not
    canonical, so the library builds none)."""
    for i, p in enumerate(parts):
        if fraction_ga_multiply(p, p) != p:
            return False
        for q in parts[i + 1 :]:
            if fraction_ga_multiply(p, q).terms or fraction_ga_multiply(q, p).terms:
                return False
    return fraction_ga_sum(whole.k, parts) == whole


def fraction_act_on_functional(x, beta: WordFunctional, k: int) -> WordFunctional:
    """Dual slot action, scattering each term of beta at w to w o sigma with
    Fraction products, one term at a time."""
    terms: dict = {}
    for word in beta.terms:
        if len(word) != k:
            raise ValueError("functional is not homogeneous of degree k")
    for perm, c in x.terms.items():
        for word, v in beta.terms.items():
            moved = tuple(word[perm[i]] for i in range(k))
            terms[moved] = terms.get(moved, Fraction(0)) + c * v
    return WordFunctional(beta.d, terms)


def permutation_orderings(items) -> list:
    """The distinct orderings of a multiset: every ordering, deduplicated
    and sorted."""
    return sorted(set(itertools.permutations(items)))


def permutation_words_with_counts(counts: dict) -> list:
    """Words with the given letter multiplicities, by :func:`permutation_orderings`."""
    return permutation_orderings([letter for letter, c in counts.items() for _ in range(c)])


def normalized_row_functionals(d: int, words, matrix) -> list:
    """The nonzero rows of :func:`gauss_jordan_rref`, read as functionals
    over ``words``, each scaled to integer coefficients with gcd one and the
    coefficient at its lex-first word positive: the normalization of
    :func:`thrallkit.invariants.sl_invariant_space`."""
    red, pivots = gauss_jordan_rref(matrix)
    out = []
    for row in red[: len(pivots)]:
        scale = math.lcm(*(x.denominator for x in row))
        nums = [x.numerator * (scale // x.denominator) for x in row]
        lead = min((w, n) for w, n in zip(words, nums) if n)[1]
        g = math.gcd(*nums) * (1 if lead > 0 else -1)
        out.append(WordFunctional(d, {w: n // g for w, n in zip(words, nums) if n}))
    return out


def permutation_sl_invariant_space(d: int, k: int) -> list:
    """The standard polytabloid rows over the balanced words of
    :func:`permutation_words_with_counts`, each column determinant read off
    ``permutations.sign``; normalized like
    :func:`thrallkit.invariants.sl_invariant_space`."""
    if k <= 0 or k % d != 0:
        return []
    ell = k // d
    words = permutation_words_with_counts({letter: ell for letter in range(1, d + 1)})
    rows = []
    for tableau in standard_tableaux((ell,) * d):
        row = []
        for w in words:
            value = 1
            for j in range(ell):
                letters = [w[slot - 1] for slot in tableau.column(j)]
                value *= sign(tuple(x - 1 for x in letters)) if len(set(letters)) == d else 0
            row.append(value)
        rows.append(row)
    return normalized_row_functionals(d, words, rows)


def nullspace_sl_invariant_space(d: int, k: int) -> list:
    """Determinant-one invariants as the nullspace of the infinitesimal
    conditions, normalized like :func:`thrallkit.invariants.sl_invariant_space`.

    Invariance under the diagonal traceless generators pins the support to
    balanced words (each letter k/d times, so empty unless d divides k); each
    off-diagonal elementary matrix E_ab then gives, for every word w with one
    extra b and one missing a, the condition sum over the slots of w holding
    b of beta[w with that slot set to a] = 0.

    Built once per (d, k), since the tests that read one shape share it;
    every call returns a fresh list.
    """
    return list(_nullspace_sl_invariant_space(d, k))


@functools.cache
def _nullspace_sl_invariant_space(d: int, k: int) -> tuple:
    if k <= 0 or k % d != 0:
        return ()
    quota = k // d
    balanced = permutation_words_with_counts({letter: quota for letter in range(1, d + 1)})
    index = {w: i for i, w in enumerate(balanced)}
    rows = []
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a == b:
                continue
            counts = {letter: quota for letter in range(1, d + 1)}
            counts[a] -= 1
            counts[b] += 1
            for w in permutation_words_with_counts(counts):
                row = [Fraction(0)] * len(balanced)
                for slot, letter in enumerate(w):
                    if letter == b:
                        row[index[w[:slot] + (a,) + w[slot + 1 :]]] += 1
                rows.append(row)
    basis = nullspace(rows) if rows else identity_matrix(len(balanced))
    return tuple(normalized_row_functionals(d, balanced, basis))


def fraction_path_invariants(d: int, ell: int) -> dict:
    """Graded invariants by projecting the nullspace-built ambient invariants
    with :func:`fraction_act_on_functional`, one row per image over all d^k
    words."""
    k = d * ell
    ambient = nullspace_sl_invariant_space(d, k)
    words = all_words(d, k)
    out = {}
    for lam in partitions(k):
        projector = higher_lie_idempotent(lam)
        images = []
        for beta in ambient:
            image = fraction_act_on_functional(projector, beta, k)
            if image.terms:
                images.append([image.terms.get(w, Fraction(0)) for w in words])
        out[lam] = normalized_row_functionals(d, words, images)
    return out


def dense_lie_level(element, k: int) -> Tensor:
    """Degree-k part of a Lie element as a sum of scaled dense bracketings."""
    acc = Tensor(element.d, k, [0] * element.d**k)
    for word, c in element.coeffs.items():
        if len(word) == k:
            acc = acc + lyndon_bracketing(word, element.d).scale(c)
    return acc


def dense_w_lambda_basis(lam, d: int) -> list:
    """The lam-graded basis: for each multiset of Lyndon words realizing lam,
    the sum over its distinct orderings of dense tensor products of the
    bracketings."""
    lam = check_partition(lam)
    per_size = [
        list(itertools.combinations_with_replacement(lyndon_words(d, i), a))
        for i, a in sorted(multiplicity_profile(lam).items())
    ]
    vectors = []
    for combo in itertools.product(*per_size):
        words = [w for group in combo for w in group]
        acc = Tensor(d, sum(lam), [0] * d ** sum(lam))
        for order in permutation_orderings(words):
            term = Tensor.scalar(d, 1)
            for w in order:
                term = tensor_product(term, lyndon_bracketing(w, d))
            acc = acc + term
        if not acc.is_zero():
            vectors.append(acc)
    return vectors


def dense_f_lambda(element, lam) -> Tensor:
    """(1/l!) times the sum over the distinct rearrangements (a_1..a_l) of lam
    of the dense tensor products of the Lie element's levels."""
    lam = check_partition(lam)
    parts = {i: dense_lie_level(element, i) for i in set(lam)}
    acc = Tensor(element.d, sum(lam), [0] * element.d ** sum(lam))
    for comp in sorted(set(itertools.permutations(lam))):
        term = Tensor.scalar(element.d, 1)
        for a in comp:
            term = tensor_product(term, parts[a])
        acc = acc + term
    return acc.scale(Fraction(1, math.factorial(len(lam))))


def dense_lie_bracket(a, b):
    """The commutator of every pair of dense levels, read back in Lyndon
    coordinates; graded pieces above the common truncation are dropped."""
    k_max = min(a.k_max, b.k_max)
    coeffs: dict = {}
    for i in range(1, k_max):
        left = dense_lie_level(a, i)
        for j in range(1, k_max - i + 1):
            right = dense_lie_level(b, j)
            commutator = tensor_product(left, right) + tensor_product(right, left).scale(-1)
            coords = lie_coordinates(commutator)
            if coords is None:
                raise ArithmeticError("commutator left the graded Lie subspace")
            for w, c in coords.items():
                coeffs[w] = coeffs.get(w, Fraction(0)) + c
    return LieElement(a.d, k_max, coeffs)


def _column_sign(letters) -> int:
    """Determinant of the basis vectors e_letters: the sign that sorts them, or 0 on a repeat."""
    if len(set(letters)) < len(letters):
        return 0
    return sign(tuple(sorted(range(len(letters)), key=letters.__getitem__)))


def polytabloid_rows_by_scan(d: int, ell: int):
    """The balanced words and the standard polytabloid rows of
    :func:`thrallkit.invariants._polytabloid_rows`, by scanning every
    balanced word for every standard tableau: the entry at w is the product
    over the tableau's columns of the determinant of w's letters there."""
    words = list(distinct_orderings(letter for letter in range(1, d + 1) for _ in range(ell)))
    rows = []
    for tableau in standard_tableaux((ell,) * d):
        columns = [tableau.column(j) for j in range(ell)]
        rows.append([
            math.prod(_column_sign(tuple(w[slot - 1] for slot in col)) for col in columns)
            for w in words
        ])
    return words, rows


@functools.cache
def weight_blocks(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Flat indices of the words of length k grouped by letter content.

    Blocks appear in the order of their first index, indices ascending.
    """
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, word in enumerate(itertools.product(range(d), repeat=k)):
        blocks.setdefault(tuple(sorted(word)), []).append(i)
    return tuple(tuple(block) for block in blocks.values())


@functools.cache
def weight_patterns(d: int, k: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The weight blocks grouped by shape, their letter counts in decreasing
    order, in the order of :func:`weight_blocks`.

    A shape's first block holds the letters 1..l with non-increasing counts,
    its words in lex order.  Every other block lists its flat indices as the
    images of those words under the letter relabelling that keeps counts,
    ties broken in letter order, so place t of every block of a shape holds
    the same word up to relabelling.  Relabelling letters is the action of a
    permutation matrix of GL_d, so an operator that commutes with GL_d (a
    slot permutation, a graded projector) has one matrix per shape.
    """
    shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    words: dict[tuple[int, ...], list[Word]] = {}
    for block in weight_blocks(d, k):
        content = index_to_word(block[0], d, k)
        runs = sorted((-len(list(run)), a) for a, run in itertools.groupby(content))
        shape = tuple(-c for c, _ in runs)
        if shape not in shapes:
            # its content, letters 1..l with non-increasing counts, is the
            # lex-least of the shape, so weight_blocks lists this block first
            shapes[shape], words[shape] = [block], [index_to_word(i, d, k) for i in block]
            continue
        # image[c]: the digit of the letter that the first block's letter c becomes
        image = [0, *(a - 1 for _, a in runs)]
        shapes[shape].append(tuple(
            reduce(lambda i, c: i * d + image[c], u, 0) for u in words[shape]
        ))
    return shapes
