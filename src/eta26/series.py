"""Brute-force q-series oracle: expand prod(1 - q^m)^r to a target order.

The expansion is exact integer arithmetic throughout.  It exists to
cross-validate the closed-form evaluation in hecke: the two paths share
no code and no conventions, so agreement is meaningful.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import IO

from .errors import SeriesBudgetError

DEFAULT_BUDGET_MB = 512


@dataclass(frozen=True)
class PowerSeries:
    """Dense coefficients c_0..c_order of prod(1 - q^m)^r mod q^(order+1)."""

    r: int
    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs length must be order + 1")

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __len__(self) -> int:
        return self.order + 1

    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)


def _pentagonal_coeffs(order: int) -> list[int]:
    # Euler: prod(1 - q^m) = sum_k (-1)^k q^(k(3k +/- 1)/2)
    out = [0] * (order + 1)
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > order and g2 > order:
            break
        sign = -1 if k % 2 else 1
        if g1 <= order:
            out[g1] = sign
        if g2 <= order:
            out[g2] = sign
        k += 1
    return out


def pentagonal_series(order: int) -> PowerSeries:
    """Sparse pentagonal-number expansion of prod(1 - q^m), exact to order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return PowerSeries(1, order, tuple(_pentagonal_coeffs(order)))


def jacobi_series(order: int) -> PowerSeries:
    """prod(1 - q^m)^3: coefficient (-1)^k (2k+1) at the triangular index k(k+1)/2."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        out[k * (k + 1) // 2] = (2 * k + 1) * (-1 if k % 2 else 1)
        k += 1
    return PowerSeries(3, order, tuple(out))


def _table_bytes(coeffs: list[int]) -> int:
    return sys.getsizeof(coeffs) + sum(sys.getsizeof(c) for c in coeffs)


def _check_budget(total: int, budget_mb: int, context: str) -> None:
    if total > budget_mb * 1024 * 1024:
        raise SeriesBudgetError(
            f"{context}: coefficient table needs ~{total // (1024 * 1024) + 1} MiB, "
            f"budget is {budget_mb} MiB"
        )


def eta_power_series(r: int, order: int, budget_mb: int = DEFAULT_BUDGET_MB) -> PowerSeries:
    """Exact coefficients of prod(1 - q^m)^r mod q^(order+1).

    Multiplies an accumulator by the sparse pentagonal series r times;
    each pass costs O(order * sqrt(order)) big-integer additions.  The
    actual size of the coefficient table is checked against budget_mb
    after every pass and a SeriesBudgetError reports overruns; before
    anything is allocated, the size of an all-zero table of order + 1
    entries is checked the same way.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    context = f"eta_power_series(r={r}, order={order})"
    # _table_bytes of [0] * (order + 1): one pointer and one small int per entry
    entry = struct.calcsize("P") + sys.getsizeof(0)
    _check_budget(sys.getsizeof([]) + (order + 1) * entry, budget_mb, context)
    pent = [(i, c) for i, c in enumerate(_pentagonal_coeffs(order)) if c]
    acc = [0] * (order + 1)
    acc[0] = 1
    for _ in range(r):
        out = [0] * (order + 1)
        for i, c in pent:
            if c > 0:
                for j in range(order + 1 - i):
                    out[i + j] += acc[j]
            else:
                for j in range(order + 1 - i):
                    out[i + j] -= acc[j]
        acc = out
        _check_budget(_table_bytes(acc), budget_mb, context)
    return PowerSeries(r, order, tuple(acc))


def p26_oracle(n: int, budget_mb: int = DEFAULT_BUDGET_MB) -> int:
    """p26(n) read off the brute-force expansion of prod(1 - q^m)^26."""
    if n < 0:
        raise ValueError("p26_oracle expects n >= 0")
    return eta_power_series(26, n, budget_mb)[n]


def write_coefficient_csv(series: PowerSeries, stream: IO[str]) -> None:
    """Dump (index, coefficient) rows; coefficients as decimal strings."""
    stream.write("index,coefficient\n")
    for i, c in enumerate(series.coeffs):
        stream.write(f"{i},{c}\n")
