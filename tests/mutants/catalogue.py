"""Mutation catalogue: each entry breaks the program in one place and names
the tier-1 test that must then fail.

    python3 tests/mutants/catalogue.py             # every entry
    python3 tests/mutants/catalogue.py NAME ...    # only these entries
    python3 tests/mutants/catalogue.py --list

Each mutant is applied to a fresh copy of src/, tests/ and pyproject.toml in
a temporary directory, and only its test runs there.  First the named tests
run once on an unmutated copy, and they must pass.  A mutant is killed when
its test fails (or its module no longer imports); it survives when the test
passes.  The script exits 1 if a mutant survives, if an entry's old text is
not found exactly once, or if the unmutated copy fails, and 0 otherwise.

The catalogue only grows.  A survivor calls for a stronger test, never for
dropping the entry.  The file is not a test module, so pytest does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    test: str


CATALOGUE = (
    Mutant("quadrep-y-sign", "src/eta26/quadrep.py",
           "        if y % 3 != 2:\n            y = -y\n",
           "        if y % 3 != 1:\n            y = -y\n",
           "tests/test_acceptance.py::test_criterion_01_t2_vector"),
    Mutant("hecke-step-sign", "src/eta26/hecke.py",
           "step = p**12 if p % 4 == 1 else -p**12",
           "step = -p**12 if p % 4 == 1 else p**12",
           "tests/test_acceptance.py::test_criterion_04_cm_equals_oracle"),
    Mutant("classify-exponent-gate-off-by-one", "src/eta26/classify.py",
           "e % q == q - 1",
           "e % q == q - 2",
           "tests/test_classify.py::test_profile_matches_reference_to_30000"),
    Mutant("props-no-spot-checks", "src/eta26/props.py",
           "_SPOT_CHECKS = 3",
           "_SPOT_CHECKS = 0",
           "tests/test_props.py::test_flipped_y_convention_at_5_mod_12_is_reported"),
    Mutant("props-mod-7-periodicity-sign", "src/eta26/props.py",
           "s7 = 1 if v1 == 2 else -1",
           "s7 = -1 if v1 == 2 else 1",
           "tests/test_acceptance.py::test_criterion_08_props_suite"),
    Mutant("arith-pollard-budget-ignored", "src/eta26/arith.py",
           "if budget[0] <= 0:",
           "if False:",
           "tests/test_arith.py::test_factoring_budget_is_enforced"),
    Mutant("classify-cond-ii-dropped", "src/eta26/classify.py",
           '_ZERO_RULES = ("cond-I", "cond-II")',
           '_ZERO_RULES = ("cond-I",)',
           "tests/test_acceptance.py::test_criterion_10_no_unexplained_zeros"),
    Mutant("series-remainder-unchecked", "src/eta26/series.py",
           "        if rem:\n",
           "        if False:\n",
           "tests/test_series.py::test_inexact_division_is_a_red_flag"),
    Mutant("series-imports-hecke", "src/eta26/series.py",
           "from .errors import ConsistencyError, SeriesBudgetError\n",
           "from . import hecke\nfrom .errors import ConsistencyError, SeriesBudgetError\n",
           "tests/test_series.py::test_series_imports_nothing_from_the_package_but_errors"),
    Mutant("arith-cofactor-prime-unchecked", "src/eta26/arith.py",
           "verdicts[n] = is_prime(n)",
           "verdicts[n] = True",
           "tests/test_arith.py::test_factorize_matches_sympy_on_sieve_smooth_times_rough"),
    Mutant("arith-trial-division-stops-early", "src/eta26/arith.py",
           "if p * p > m:",
           "if p * p >= m:",
           "tests/test_arith.py::test_factorize_tests_only_the_cofactors_it_meets"),
    Mutant("arith-cofactor-retested", "src/eta26/arith.py",
           "        if n not in verdicts:\n",
           "        if True:\n",
           "tests/test_arith.py::test_factorize_tests_no_number_twice"),
    Mutant("arith-ecm-stage-2-dropped", "src/eta26/arith.py",
           "return math.gcd(acc, n)",
           "return 1",
           "tests/test_arith.py::test_ecm_stage_2"),
    Mutant("arith-ecm-returns-n", "src/eta26/arith.py",
           "if 1 < g < n:",
           "if g > 1:",
           "tests/test_arith.py::test_ecm_never_returns_n"),
    Mutant("arith-ecm-before-brent", "src/eta26/arith.py",
           "_ECM_ROUND = 2_048",
           "_ECM_ROUND = 1",
           "tests/test_arith.py::test_brent_splits_a_small_rough_prime_before_p_minus_1"),
    Mutant("series-pentagonal-sign", "src/eta26/series.py",
           "-1 if j % 2 else 1",
           "1 if j % 2 else -1",
           "tests/test_series.py::test_eta3_equals_jacobi_and_pentagonal_cubed"),
    Mutant("arith-progression-exponent-loop-dropped", "src/eta26/arith.py",
           "                    while r % p == 0:\n"
           "                        r //= p\n"
           "                        e += 1\n",
           "",
           "tests/test_arith.py::test_factor_progression_equals_factorize"),
    Mutant("arith-progression-step-divisor-skipped", "src/eta26/arith.py",
           "elif offset % p == 0:",
           "elif False:",
           "tests/test_cli.py::test_golden_output_bytes"),
    Mutant("cli-json-booleans-swapped", "src/eta26/cli.py",
           '_JSON_BOOL = ("false", "true")',
           '_JSON_BOOL = ("true", "false")',
           "tests/test_cli.py::test_golden_output_bytes"),
    Mutant("props-prime-bound-unchecked", "src/eta26/props.py",
           "if prime_bound < MIN_PRIME_BOUND:",
           "if False:",
           "tests/test_props.py::test_negative_bounds_raise"),
    Mutant("arith-cofactor-assumed-prime", "src/eta26/arith.py",
           "if rest < limit:",
           "if True:",
           "tests/test_arith.py::test_factor_progression_equals_factorize"),
    Mutant("classify-family-scan-offset", "src/eta26/classify.py",
           "(12 * mult, mult)",
           "(12 * mult, 13)",
           "tests/test_cli.py::test_golden_output_bytes"),
    Mutant("props-work-budget-unchecked", "src/eta26/props.py",
           "if work > WORK_BUDGET:",
           "if False:",
           "tests/test_props.py::test_work_budget_is_checked_before_any_prime_is_read"),
    Mutant("classify-range-start-unchecked", "src/eta26/classify.py",
           "if start < 0 or end < start:",
           "if end < start:",
           "tests/test_classify.py::test_scan_validation"),
    Mutant("cli-selftest-ignores-unexplained-zeros", "src/eta26/cli.py",
           'check("no unexplained zeros", not stream.unexplained)',
           'check("no unexplained zeros", True)',
           "tests/test_cli.py::test_selftest_fails_on_an_unexplained_zero"),
    Mutant("props-difference-last-exponent-dropped", "src/eta26/props.py",
           "r > exponent_bound",
           "r >= exponent_bound",
           "tests/test_props.py::test_difference_verifier_reads_the_first_and_last_exponent"),
    Mutant("hecke-t2-lane-anchor", "src/eta26/hecke.py",
           "a1, b1, c1, a2, b2, c2 = 1, 0, 1, 0, 0, 0",
           "a1, b1, c1, a2, b2, c2 = 1, 0, 1, 0, 0, 1",
           "tests/test_hecke.py::test_recursion_matches_closed_form_split"),
    Mutant("classify-range-family-unchecked", "src/eta26/classify.py",
           "if family is not None and family not in FAMILIES:",
           "if False:",
           "tests/test_classify.py::test_scan_validation"),
    Mutant("hecke-p26-rationality-unchecked", "src/eta26/hecke.py",
           "if b != 0:",
           "if False:",
           "tests/test_hecke.py::test_corrupted_t1_prime_value_raises_consistency_error"),
    Mutant("classify-class-bits-5-7-swapped", "src/eta26/classify.py",
           "_C5, _C7, _C11 = 1 << 5, 1 << 7, 1 << 11",
           "_C5, _C7, _C11 = 1 << 7, 1 << 5, 1 << 11",
           "tests/test_classify.py::test_profile_matches_reference_to_30000"),
    Mutant("classify-verdict-contradiction-unchecked", "src/eta26/classify.py",
           "    if zero_hits and nonzero_hits:\n",
           "    if False:\n",
           "tests/test_classify.py::test_verdict_over_every_combination_of_rule_flags"),
    Mutant("props-period-preperiod-dropped", "src/eta26/props.py",
           "seq, start = _period(ta % q, tb % q, step, q)",
           "(seq, _), start = _period(ta % q, tb % q, step, q), 0",
           "tests/test_props.py::test_period_at_p_equal_q_has_a_one_entry_preperiod"),
    Mutant("props-period-shortened-by-one", "src/eta26/props.py",
           "cycle = seq[start:-2]",
           "cycle = seq[start:-3]",
           "tests/test_props.py::test_cached_period_matches_a_reference_past_two_periods"),
    Mutant("arith-progression-prime-bound-off-by-one", "src/eta26/arith.py",
           "for p in _primes(bound + 1):",
           "for p in _primes(bound):",
           "tests/test_arith.py::test_factor_progression_takes_each_start_offset_once"),
    Mutant("classify-gate-reads-every-class", "src/eta26/classify.py",
           "        if p % 12 == 1:\n",
           "        if True:\n",
           "tests/test_classify.py::test_mt_gate_detection_uses_1_mod_12_primes_only"),
    Mutant("classify-family-gate-ignored", "src/eta26/classify.py",
           "if not anchored & _ANCHOR_BITS[q]:",
           "if False:",
           "tests/test_classify.py::test_check_family_matches_reference_at_gate_shapes"),
    Mutant("cli-selftest-ignores-cm-mismatch", "src/eta26/cli.py",
           "not mismatch,",
           "True,",
           "tests/test_cli.py::test_selftest_checks_cm_against_series_over_the_range_sieve"),
    Mutant("arith-primes-keep-zero-and-one", "src/eta26/arith.py",
           "        if lo == 0:\n            flags[:2] = b\"\\x00\\x00\"\n",
           "",
           "tests/test_arith.py::test_primes_below_boundaries"),
    Mutant("arith-is-prime-below-two-unguarded", "src/eta26/arith.py",
           "    if m < 2:\n        return False\n",
           "",
           "tests/test_arith.py::test_is_prime_agrees_with_sieve"),
    Mutant("arith-ecm-plan-signed-offset", "src/eta26/arith.py",
           "abs(q - m * _ECM_D)",
           "q - m * _ECM_D",
           "tests/test_arith.py::test_ecm_plan_matches_a_double_loop_reference"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(workdir: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _apply(workdir: Path, mutant: Mutant) -> bool:
    path = workdir / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in CATALOGUE:
            print(f"{m.name}\t{m.test}")
        return 0
    unknown = set(argv) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    chosen = [m for m in CATALOGUE if not argv or m.name in argv]
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        if _pytest(Path(tmp), sorted({m.test for m in chosen})) != 0:
            print("the named tests fail on the unmutated copy", file=sys.stderr)
            return 1
    bad = 0
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            _copy_tree(workdir)
            if not _apply(workdir, mutant):
                verdict = "stale (old text not found exactly once)"
            else:
                # 1: the test failed; 2, or 4 for a node id (no collectors
                # found), since the unmutated copy passed: its module no
                # longer imports
                verdict = "killed" if _pytest(workdir, [mutant.test]) in (1, 2, 4) else "SURVIVED"
        bad += verdict != "killed"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
