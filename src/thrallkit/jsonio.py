"""JSON (de)serialization for every wire format the CLI speaks.

Rationals travel as strings ("p/q" or "p"), words as digit strings (one
digit per letter, so the alphabet size is capped at :data:`MAX_WIRE_D`),
partitions as integer arrays, permutations as 1-based cycle lists.
Parse errors raise :class:`FormatError` naming the offending field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .words import Partition, word_from_string, word_to_string

# The model classes are imported where a parser builds one, so that the CLI
# loads only the modules of the subcommand that runs.
if TYPE_CHECKING:
    from .free_lie import LieElement
    from .group_algebra import GroupAlgebraElement
    from .shuffle_sig import PiecewiseLinearPath, WordFunctional
    from .tensors import Tensor, TensorSeries


class FormatError(ValueError):
    """Malformed input; ``field`` names the offending part."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field {field!r}: {message}")


# Largest alphabet whose words read back unambiguously: with d >= 10 the
# words (1, 12) and (11, 2) would both be written "112".
MAX_WIRE_D = 9


def check_wire_dimension(d: int, field: str) -> int:
    """Return ``d`` if its words fit the one-digit-per-letter wire format."""
    if not 1 <= d <= MAX_WIRE_D:
        raise FormatError(
            field, f"d={d} is outside 1..{MAX_WIRE_D}, the alphabets whose words "
            "are written one digit per letter"
        )
    return d


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text, field: str) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(field, f"expected a rational string, got {type(text).__name__}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(field, f"bad rational {text!r}: {exc}") from None


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise FormatError(f"{where}.{key}", "missing")
    value = obj[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"{where}.{key}", f"expected {kind.__name__}")
    return value


# ---------------------------------------------------------------------------
# tensors and series


def tensor_to_json(tensor: Tensor) -> dict:
    return {
        "d": tensor.d,
        "k": tensor.k,
        "entries": {
            word_to_string(w): format_fraction(c)
            for w, c in sorted(tensor.nonzero_terms().items())
        },
    }


def tensor_from_json(obj: dict, where: str = "tensor") -> Tensor:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    k = _require(obj, "k", int, where)
    entries = _require(obj, "entries", dict, where)
    terms = {}
    for key, value in entries.items():
        try:
            word = word_from_string(key)
        except ValueError as exc:
            raise FormatError(f"{where}.entries.{key}", str(exc)) from None
        if len(word) != k:
            raise FormatError(f"{where}.entries.{key}", f"word length != {k}")
        if any(not 1 <= x <= d for x in word):
            raise FormatError(f"{where}.entries.{key}", f"letters outside 1..{d}")
        terms[word] = parse_fraction(value, f"{where}.entries.{key}")
    from .tensors import Tensor

    try:
        return Tensor.from_dict(d, k, terms)
    except ValueError as exc:
        raise FormatError(where, str(exc)) from None


def series_to_json(series: TensorSeries) -> dict:
    return {
        "d": series.d,
        "k_max": series.k_max,
        "levels": [
            {
                word_to_string(w): format_fraction(c)
                for w, c in sorted(series.level(k).nonzero_terms().items())
            }
            for k in range(series.k_max + 1)
        ],
    }


def series_from_json(obj: dict, where: str = "series") -> TensorSeries:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    k_max = _require(obj, "k_max", int, where)
    levels = _require(obj, "levels", list, where)
    if len(levels) != k_max + 1:
        raise FormatError(f"{where}.levels", f"expected {k_max + 1} levels")
    tensors = []
    for k, level in enumerate(levels):
        if not isinstance(level, dict):
            raise FormatError(f"{where}.levels[{k}]", "expected an object")
        tensors.append(
            tensor_from_json({"d": d, "k": k, "entries": level}, f"{where}.levels[{k}]")
        )
    from .tensors import TensorSeries

    return TensorSeries(d, tuple(tensors))


# ---------------------------------------------------------------------------
# group algebra


def group_element_to_json(element: GroupAlgebraElement) -> dict:
    from .permutations import to_cycles

    terms = []
    for perm in sorted(element.terms):
        terms.append(
            {
                "cycles": to_cycles(perm),
                "coeff": format_fraction(element.terms[perm]),
            }
        )
    return {"k": element.k, "terms": terms}


def group_element_from_json(obj: dict, where: str = "element") -> GroupAlgebraElement:
    from .permutations import from_cycles

    k = _require(obj, "k", int, where)
    raw = _require(obj, "terms", list, where)
    terms = {}
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise FormatError(f"{where}.terms[{i}]", "expected an object")
        cycles = _require(item, "cycles", list, f"{where}.terms[{i}]")
        try:
            perm = from_cycles(cycles, k)
        except (ValueError, TypeError) as exc:
            raise FormatError(f"{where}.terms[{i}].cycles", str(exc)) from None
        coeff = parse_fraction(item.get("coeff"), f"{where}.terms[{i}].coeff")
        terms[perm] = terms.get(perm, Fraction(0)) + coeff
    from .group_algebra import GroupAlgebraElement

    return GroupAlgebraElement(k, terms)


# ---------------------------------------------------------------------------
# Lie elements, functionals, paths


def lie_element_to_json(element: LieElement) -> dict:
    return {
        "d": element.d,
        "k_max": element.k_max,
        "coeffs": {
            word_to_string(w): format_fraction(c)
            for w, c in sorted(element.coeffs.items())
        },
    }


def lie_element_from_json(obj: dict, where: str = "lie") -> LieElement:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    raw = _require(obj, "coeffs", dict, where)
    coeffs = {}
    for key, value in raw.items():
        try:
            word = word_from_string(key)
        except ValueError as exc:
            raise FormatError(f"{where}.coeffs.{key}", str(exc)) from None
        coeffs[word] = parse_fraction(value, f"{where}.coeffs.{key}")
    k_max = obj.get("k_max", max((len(w) for w in coeffs), default=1))
    if not isinstance(k_max, int):
        raise FormatError(f"{where}.k_max", "expected int")
    from .free_lie import LieElement

    try:
        return LieElement(d, k_max, coeffs)
    except ValueError as exc:
        raise FormatError(f"{where}.coeffs", str(exc)) from None


def functional_to_json(beta: WordFunctional, grading: Partition | None = None) -> dict:
    out = {
        "terms": {
            word_to_string(w): format_fraction(c) for w, c in sorted(beta.terms.items())
        }
    }
    if grading is not None:
        out["grading"] = list(grading)
    return out


def functional_from_json(obj: dict, d: int, where: str = "functional") -> WordFunctional:
    check_wire_dimension(d, f"{where}.d")
    raw = _require(obj, "terms", dict, where)
    terms = {}
    for key, value in raw.items():
        try:
            word = word_from_string(key)
        except ValueError as exc:
            raise FormatError(f"{where}.terms.{key}", str(exc)) from None
        terms[word] = parse_fraction(value, f"{where}.terms.{key}")
    from .shuffle_sig import WordFunctional

    try:
        return WordFunctional(d, terms)
    except ValueError as exc:
        raise FormatError(f"{where}.terms", str(exc)) from None


def path_to_json(path: PiecewiseLinearPath) -> dict:
    return {
        "d": path.d,
        "points": [[format_fraction(x) for x in p] for p in path.points],
    }


def path_from_json(obj: dict, where: str = "path") -> PiecewiseLinearPath:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    points = _require(obj, "points", list, where)
    parsed = []
    for i, p in enumerate(points):
        if not isinstance(p, list):
            raise FormatError(f"{where}.points[{i}]", "expected an array")
        parsed.append(
            tuple(
                parse_fraction(x, f"{where}.points[{i}][{j}]") for j, x in enumerate(p)
            )
        )
    from .shuffle_sig import PiecewiseLinearPath

    try:
        return PiecewiseLinearPath(d, tuple(parsed))
    except ValueError as exc:
        raise FormatError(f"{where}.points", str(exc)) from None


# ---------------------------------------------------------------------------
# partitions on the command line


def parse_partition(text: str, field: str = "partition") -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise FormatError(field, f"cannot parse {text!r} as comma-separated integers") from None
    if any(p <= 0 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise FormatError(field, f"{parts} is not a weakly decreasing positive tuple")
    return parts


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)
