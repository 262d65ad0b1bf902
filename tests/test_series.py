import ast
import math
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eta26.cli as cli
import eta26.quadrep as quadrep
import eta26.series as series
from eta26 import (
    ConsistencyError,
    PowerSeries,
    SeriesBudgetError,
    eta_power_series,
    p26_cm,
    p26_oracle,
)

EULER_26 = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
            0, 0, -1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1)
JACOBI_21 = (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9,
             0, 0, 0, 0, -11, 0, 0, 0, 0, 0, 13)


def pentagonal_series(order):
    """prod(1 - q^m) by Euler: (-1)^j at the pentagonal index j(3j -/+ 1)/2."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = [0] * (order + 1)
    j = 0
    while j * (3 * j - 1) // 2 <= order:
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if k <= order:
                out[k] = -1 if j % 2 else 1
        j += 1
    return PowerSeries(1, order, tuple(out))


def jacobi_series(order):
    """prod(1 - q^m)^3: coefficient (-1)^k (2k+1) at the triangular index k(k+1)/2."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        out[k * (k + 1) // 2] = (2 * k + 1) * (-1 if k % 2 else 1)
        k += 1
    return PowerSeries(3, order, tuple(out))


def _nonzero_indices(ser):
    return tuple(i for i, c in enumerate(ser.coeffs) if c)


def _convolve(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return tuple(out)


def _sparse_product(r, order):
    # reference: multiply by the sparse pentagonal series r times
    pent = [(i, c) for i, c in enumerate(pentagonal_series(order).coeffs) if c]
    acc = [0] * (order + 1)
    acc[0] = 1
    for _ in range(r):
        out = [0] * (order + 1)
        for i, c in pent:
            for j in range(order + 1 - i):
                out[i + j] += c * acc[j]
        acc = out
    return tuple(acc)


def _table_bytes(coeffs):
    # what a list holding these coefficients occupies, entries included
    return sys.getsizeof(list(coeffs)) + sum(sys.getsizeof(c) for c in coeffs)


def test_euler_prefix():
    assert eta_power_series(1, 26).coeffs == EULER_26


def test_jacobi_prefix():
    assert eta_power_series(3, 21).coeffs == JACOBI_21


def test_r26_order1():
    assert eta_power_series(26, 1).coeffs == (1, -26)


def test_pentagonal_examples():
    assert pentagonal_series(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert pentagonal_series(0).coeffs == (1,)
    assert _nonzero_indices(pentagonal_series(15)) == (0, 1, 2, 5, 7, 12, 15)
    assert pentagonal_series(10).r == 1


def test_jacobi_examples():
    ser = jacobi_series(10)
    assert _nonzero_indices(ser) == (0, 1, 3, 6, 10)
    assert [ser[i] for i in (0, 1, 3, 6, 10)] == [1, -3, 5, -7, 9]
    assert jacobi_series(0).coeffs == (1,)
    assert jacobi_series(21)[21] == 13
    assert ser.r == 3


def test_eta1_equals_pentagonal():
    for order in (0, 1, 13, 60):
        assert eta_power_series(1, order).coeffs == pentagonal_series(order).coeffs


def test_eta3_equals_jacobi_and_pentagonal_cubed():
    order = 60
    pent = pentagonal_series(order).coeffs
    cubed = _convolve(_convolve(pent, pent, order), pent, order)
    assert eta_power_series(3, order).coeffs == jacobi_series(order).coeffs == cubed


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_product_property(r, s):
    order = 30
    a = eta_power_series(r, order).coeffs
    b = eta_power_series(s, order).coeffs
    assert eta_power_series(r + s, order).coeffs == _convolve(a, b, order)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_low_order_coefficients(r):
    ser = eta_power_series(r, 2)
    assert ser[0] == 1
    assert ser[1] == -r
    # only (1-q)^r and (1-q^2)^r contribute at order 2
    assert ser[2] == math.comb(r, 2) - r


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=300))
@settings(max_examples=30, deadline=None)
def test_recurrence_matches_sparse_product(r, order):
    assert eta_power_series(r, order).coeffs == _sparse_product(r, order)


def test_recurrence_matches_sparse_product_r26_order2000():
    assert eta_power_series(26, 2000).coeffs == _sparse_product(26, 2000)


def test_cm_equals_series_to_20000():
    oracle = eta_power_series(26, 20000)
    mismatches = [n for n in range(20001) if p26_cm(n) != oracle[n]]
    assert mismatches == []


def test_inexact_division_is_a_red_flag(monkeypatch, capsys):
    # a divmod that reports a remainder at n = 40 stands in for a wrong
    # recurrence; the exact quotient is kept, so only the check can notice
    def skewed(a, b):
        q, rem = divmod(a, b)
        return q, rem + (b == 40)

    monkeypatch.setattr(series, "divmod", skewed, raising=False)
    with pytest.raises(ConsistencyError, match="n=40"):
        eta_power_series(26, 40)
    assert eta_power_series(26, 39)[39] == p26_cm(39)
    capsys.readouterr()
    assert cli.main(["coeff", "40", "--method", "series"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("red flag: ")
    assert captured.out == ""


def test_p26_oracle_small_values():
    assert p26_oracle(0) == 1
    assert p26_oracle(1) == -26
    assert p26_oracle(2) == 299 == math.comb(26, 2) - 26


def test_input_validation():
    with pytest.raises(ValueError):
        eta_power_series(0, 5)
    with pytest.raises(ValueError):
        eta_power_series(1, -1)
    with pytest.raises(ValueError):
        p26_oracle(-3)


def test_budget_error():
    with pytest.raises(SeriesBudgetError):
        eta_power_series(26, 2_000_000, budget_mb=1)


def test_budget_is_checked_before_allocating():
    # the table of order + 1 entries alone would take about 40 MiB
    tracemalloc.start()
    try:
        with pytest.raises(SeriesBudgetError):
            eta_power_series(26, 5_000_000, budget_mb=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_growing_table_budget_is_checked_per_coefficient():
    # 3001 zero entries fit in 1 MiB, so only the running count can stop
    # the table of prod(1 - q^m)^(10^6), whose entries grow to kilobytes
    start = time.perf_counter()
    with pytest.raises(SeriesBudgetError, match="budget is 1 MiB"):
        eta_power_series(10**6, 3000, budget_mb=1)
    assert time.perf_counter() - start < 1.0


def test_running_count_matches_table_size():
    table = eta_power_series(10**6, 1500, budget_mb=2).coeffs
    assert 1 < _table_bytes(table) / (1024 * 1024) < 2
    with pytest.raises(SeriesBudgetError):
        eta_power_series(10**6, 1500, budget_mb=1)


def test_power_series_shape_validation():
    with pytest.raises(ValueError):
        PowerSeries(1, 2, (1, -1))
    ser = PowerSeries(1, 1, (1, -1))
    assert len(ser.coeffs) == 2


def test_term_count_matches_the_loop_for_orders_to_2000(monkeypatch):
    # every summed term multiplies by one pentagonal coefficient g_k, and
    # the loop divides once per n, so counting both in one expansion to
    # order 2000 gives the loop's term count for every smaller order
    terms = [0]
    at_order = [0]

    class CountingCoeff(int):
        def __rmul__(self, other):
            terms[0] += 1
            return other * int(self)

    real_pent = series._pentagonal_terms

    def counting_pent(order):
        return [(k, CountingCoeff(g)) for k, g in real_pent(order)]

    def counting_divmod(a, b):
        at_order.append(terms[0])
        return divmod(a, b)

    monkeypatch.setattr(series, "_pentagonal_terms", counting_pent)
    monkeypatch.setattr(series, "divmod", counting_divmod, raising=False)
    eta_power_series(26, 2000)
    assert len(at_order) == 2001
    assert [series._recurrence_terms(order) for order in range(2001)] == at_order


def test_term_budget_is_checked_before_the_loop():
    order = 1_000_000
    assert series._recurrence_terms(order) > series.TERM_BUDGET
    start = time.perf_counter()
    with pytest.raises(SeriesBudgetError, match=f"budget is {series.TERM_BUDGET} terms"):
        eta_power_series(26, order)
    assert time.perf_counter() - start < 1.0


def test_term_budget_admits_the_cm_sweep_to_20000():
    # a fiftyfold margin; selftest --limit 6050 needs fewer terms still
    assert series._recurrence_terms(20000) * 50 < series.TERM_BUDGET


def _package_modules_imported(source):
    """The eta26 modules an import statement in source names, as dotted paths."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "eta26")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(filter(None, ["eta26", node.module]))
            elif node.module.split(".")[0] == "eta26":
                base = node.module
            else:
                continue
            if base == "eta26":  # from . import x: x is a module
                yield from (f"eta26.{a.name}" for a in node.names)
            else:
                yield base


def test_series_imports_nothing_from_the_package_but_errors():
    # the oracle stays independent of the CM path: no shared code with hecke
    source = Path(series.__file__).read_text()
    assert set(_package_modules_imported(source)) == {"eta26.errors"}
    assert set(_package_modules_imported("from . import hecke\nimport eta26.arith")) == {
        "eta26.hecke", "eta26.arith"}


def test_quadrep_imports_nothing_from_the_package_but_errors():
    # quadrep is a leaf: it runs no primality test, so no binding of is_prime
    # there can be called, and the is_prime counts in tests/test_cli.py and
    # tests/test_props.py need not patch it
    source = Path(quadrep.__file__).read_text()
    assert set(_package_modules_imported(source)) == {"eta26.errors"}
