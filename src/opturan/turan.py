"""Exact arithmetic for the outerplanar cycle-Turan bound.

The certified upper bound for an n-vertex outerplanar graph with no cycle
of length k is

    e <= (2k - 5)(kn - k - 1) / (k^2 - 2k - 1),

attained exactly when n == k - 1 (mod k^2 - 2k - 1). Everything here is
integer arithmetic on Python ints; no floats ever enter a comparison.

`fang_value_as_stated` evaluates the closed formula published by L. Fang
et al. (2021) for these Turan numbers, literally as transcribed. The
transcription is numerically inconsistent with the sharp bound above at
various (k, n) (for instance k=4, n=10 gives 11 where 15 is attained), so
its results are reporting-only: flagged in CSV output and never used as an
oracle anywhere in this package.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .construct import ChainParams


class BoundDomainError(ValueError):
    """Arguments outside k >= 3, n >= 2."""


def _check_domain(k: int, n: int) -> None:
    if k < 3:
        raise BoundDomainError(f"cycle length must be >= 3, got {k}")
    if n < 2:
        raise BoundDomainError(f"vertex count must be >= 2, got {n}")


@dataclass(frozen=True)
class BoundValue:
    """The bound as an exact integer pair (2k-5)(kn-k-1) / (k^2-2k-1)."""

    k: int
    n: int
    numerator: int
    denominator: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def floor(self) -> int:
        return self.numerator // self.denominator

    def is_integer(self) -> bool:
        return self.numerator % self.denominator == 0

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def upper_bound(k: int, n: int) -> BoundValue:
    _check_domain(k, n)
    return BoundValue(
        k=k,
        n=n,
        numerator=(2 * k - 5) * (k * n - k - 1),
        denominator=k * k - 2 * k - 1,
    )


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    equality: bool
    lhs: int  # e * (k^2 - 2k - 1)
    rhs: int  # (2k - 5)(kn - k - 1)


def bound_holds(e: int, k: int, n: int) -> BoundCheck:
    """Integer comparison e*(k^2-2k-1) <= (2k-5)(kn-k-1), with equality flag."""
    _check_domain(k, n)
    bound = upper_bound(k, n)
    lhs = e * bound.denominator
    return BoundCheck(
        holds=lhs <= bound.numerator,
        equality=lhs == bound.numerator,
        lhs=lhs,
        rhs=bound.numerator,
    )


def sharp_residue(k: int, n: int) -> bool:
    """True iff n == k-1 modulo k^2-2k-1, where the bound is attained."""
    if k < 3:
        raise BoundDomainError(f"cycle length must be >= 3, got {k}")
    return (n - (k - 1)) % (k * k - 2 * k - 1) == 0


FANG_CAVEAT = (
    "closed formula reported as stated in its published transcription; "
    "known to diverge from the attained maximum at some (k, n)"
)


@dataclass(frozen=True)
class FangFormulaResult:
    """Literal evaluation of the transcribed closed formula; reporting only."""

    k: int
    n: int
    lam: int | None  # floor((kn-2k-1)/(k^2-2k-1)) + 1, defined for n >= k
    value: int
    branch: str  # "small-n" | "divisible" | "non-divisible"


def fang_value_as_stated(k: int, n: int) -> FangFormulaResult:
    _check_domain(k, n)
    if n <= k - 1:
        return FangFormulaResult(k=k, n=n, lam=None, value=2 * n - 3, branch="small-n")
    lam = (k * n - 2 * k - 1) // (k * k - 2 * k - 1) + 1
    if lam % k == 0:
        value = 2 * n - lam - 2 * (lam // k) - 3
        branch = "divisible"
    else:
        value = 2 * n - lam - 2 * (lam // k) - 2
        branch = "non-divisible"
    return FangFormulaResult(k=k, n=n, lam=lam, value=value, branch=branch)


# ---------------------------------------------------------------------------
# Comparison table
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "n",
    "k",
    "bound_num",
    "bound_den",
    "sharp_residue",
    "fang_as_stated",
    "oracle_value",
    "construction_edges",
    "divergent",
)


def construction_edge_count(k: int, n: int) -> int | None:
    """Edge count of the extremal chain on n vertices, when one exists.

    Chains exist exactly at the sharp residues n >= k-1, one per merge count
    m = (n - (k-1)) / (k^2-2k-1), and ChainParams gives their closed form.
    """
    if n < k - 1 or not sharp_residue(k, n):
        return None
    return ChainParams(k, (n - (k - 1)) // (k * k - 2 * k - 1)).edge_count


def comparison_rows(
    k: int,
    ns: Sequence[int],
    oracle_values: Mapping[int, int] | None = None,
) -> list[dict[str, object]]:
    """One row per n comparing bound, transcribed formula, oracle, construction.

    A row is divergent when an oracle value is available and the transcribed
    formula disagrees with it.
    """
    oracle_values = oracle_values or {}
    rows: list[dict[str, object]] = []
    for n in ns:
        bound = upper_bound(k, n)
        fang = fang_value_as_stated(k, n)
        oracle = oracle_values.get(n)
        construction = construction_edge_count(k, n)
        divergent = "" if oracle is None else ("yes" if fang.value != oracle else "no")
        rows.append(
            {
                "n": n,
                "k": k,
                "bound_num": bound.numerator,
                "bound_den": bound.denominator,
                "sharp_residue": "yes" if sharp_residue(k, n) else "no",
                "fang_as_stated": fang.value,
                "oracle_value": "" if oracle is None else oracle,
                "construction_edges": "" if construction is None else construction,
                "divergent": divergent,
            }
        )
    return rows


def comparison_csv(rows: Iterable[Mapping[str, object]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
