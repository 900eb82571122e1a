"""JSON (de)serialization for the wire formats the CLI speaks.

The CLI reads three formats: tensors, series (for ``check group-like``) and
paths.  It writes tensors, series, word functionals and group algebra
elements.  Rationals travel as strings ("p/q" or "p"), words as digit
strings (one digit per letter, so the alphabet size is capped at
:data:`MAX_WIRE_D`), partitions as integer arrays, permutations as 1-based
cycle lists.  Parse errors raise :class:`FormatError` naming the offending
field.
"""

from __future__ import annotations

import sys

from .words import Partition, Word, check_partition, word_from_string, word_to_string

# The model classes, and Fraction, are imported where a parser builds one,
# so that the CLI loads only the modules of the subcommand that runs; the
# annotations that name them are strings, never evaluated.


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


# ``int``, ``Fraction`` and ``str.isdigit`` also read the digits of other
# scripts ("١٢" as 12), which the word keys refuse: every number on the wire
# and on the command line is ASCII text.
ASCII_ONLY = "numbers are written in the ASCII digits 0-9"


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_fraction(text, field: str) -> Fraction:
    from fractions import Fraction

    # a JSON boolean arrives as a bool, which is also an int
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(field, f"expected a rational string, got {type(text).__name__}")
    try:
        if not text.isascii():
            raise ValueError(ASCII_ONLY)
        _, e, exponent = text.lower().rpartition("e")
        if e:
            # exponent notation reaches any size in a few characters: an
            # exponent beyond the digit limit (Python's default of 4300 where
            # the interpreter has none or it is lifted) is refused before
            # Fraction expands it, and a smaller one is held to that limit by
            # writing the number out, as all other input is
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            digits = exponent.strip().lstrip("+-")
            if digits.isdigit() and int(digits) > limit:
                raise ValueError(f"exponent beyond the digit limit of {limit}")
        value = Fraction(text)
        if e:
            str(max(abs(value.numerator), value.denominator))
        return value
    except (ValueError, ZeroDivisionError) as exc:
        # a number over the digit limit is named by its length, not echoed
        shown = repr(text) if len(text) <= 40 else f"of {len(text)} characters"
        raise FormatError(field, f"bad rational {shown}: {exc}") from None


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise FormatError(f"{where}.{key}", "missing")
    value = obj[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"{where}.{key}", f"expected {kind.__name__}")
    return value


def _terms_to_json(terms: dict[Word, Fraction]) -> dict[str, str]:
    """A word -> rational map as digit strings -> rational strings, in word order."""
    return {word_to_string(w): format_fraction(c) for w, c in sorted(terms.items())}


# ---------------------------------------------------------------------------
# tensors and series


def tensor_to_json(tensor: Tensor) -> dict:
    return {"d": tensor.d, "k": tensor.k, "entries": _terms_to_json(tensor.nonzero_terms())}


def tensor_from_json(obj: dict, where: str = "tensor") -> Tensor:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    k = _require(obj, "k", int, where)
    if k < 0:
        raise FormatError(f"{where}.k", f"order {k} is negative")
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
        terms[word] = _parse_fraction(value, f"{where}.entries.{key}")
    from .tensors import Tensor, check_entries

    check_entries(d, k, f"field '{where}.k': tensor")

    try:
        return Tensor.from_dict(d, k, terms)
    except ValueError as exc:
        raise FormatError(where, str(exc)) from None


def series_to_json(series: TensorSeries) -> dict:
    return {
        "d": series.d,
        "k_max": series.k_max,
        "levels": [
            _terms_to_json(series.level(k).nonzero_terms()) for k in range(series.k_max + 1)
        ],
    }


def series_from_json(obj: dict, where: str = "series") -> TensorSeries:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    k_max = _require(obj, "k_max", int, where)
    if k_max < 0:
        raise FormatError(f"{where}.k_max", f"truncation {k_max} is negative")
    from .tensors import TensorSeries, check_entries

    check_entries(d, k_max, f"field '{where}.k_max': series", levels=True)
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
    return TensorSeries(d, tuple(tensors))


# ---------------------------------------------------------------------------
# group algebra elements, functionals, paths


def group_element_to_json(element: GroupAlgebraElement) -> dict:
    from .permutations import to_cycles

    terms = [
        {"cycles": to_cycles(perm), "coeff": format_fraction(element.terms[perm])}
        for perm in sorted(element.terms)
    ]
    return {"k": element.k, "terms": terms}


def functional_to_json(beta: WordFunctional, grading: Partition | None = None) -> dict:
    out = {"terms": _terms_to_json(beta.terms)}
    if grading is not None:
        out["grading"] = list(grading)
    return out


def path_from_json(obj: dict, where: str = "path") -> PiecewiseLinearPath:
    d = check_wire_dimension(_require(obj, "d", int, where), f"{where}.d")
    points = _require(obj, "points", list, where)
    parsed = []
    for i, p in enumerate(points):
        if not isinstance(p, list):
            raise FormatError(f"{where}.points[{i}]", "expected an array")
        parsed.append(
            tuple(
                _parse_fraction(x, f"{where}.points[{i}][{j}]") for j, x in enumerate(p)
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
    if not text.isascii():
        raise FormatError(field, f"cannot parse {text!r}: {ASCII_ONLY}")
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise FormatError(field, f"cannot parse {text!r} as comma-separated integers") from None
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise FormatError(field, str(exc)) from None


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)
