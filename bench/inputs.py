"""Seeded inputs for the benchmark workloads.

Each workload function takes the run's seed and the repetition number and
returns the CLI invocations (argv lists) of that repetition.  It uses no
eta26 code, so a defect in the package's own primality test or
factoring cannot bias which inputs are drawn.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

import random

# Deterministic Miller-Rabin bases for every n < 3.3e24 (Sorenson & Webster);
# all numbers drawn here are far below that.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# range: the seed picks window starts from these fixed bands, narrow enough
# that the cost of a window barely depends on where it starts.
SCAN_STARTS = tuple(range(10_000, 12_000, 100))
SCAN_LENGTH = 20_000
MT_STARTS = tuple(range(1_000, 2_000, 50))
MT_LENGTH = 2_000
MT_FAMILIES = (25, 49)

# large-index: three groups of ops, each group's inputs spread evenly over
# its band so that the total work varies little from seed to seed.
LARGE_GROUP_SIZE = 40
PRIME_BANDS = ((10**10, 10**11), (10**11, 10**12))
SEMIPRIME_FACTOR_BAND = (10**8, 10**9)

# verify: the cm = series sweep limit L.
VERIFY_LIMITS = tuple(range(5_950, 6_051, 10))
VERIFY_PRIME_BOUND = 100_000

# Far wider than any gap between primes of one class mod 12 below 1e12.
_SEARCH_MARGIN = 100_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng: random.Random, lo: int, hi: int, residue: int) -> int:
    """A prime p = residue (mod 12) in [lo, hi): the first one above a random
    start, which is drawn far enough below hi that a prime always follows."""
    p = rng.randrange(lo, hi - _SEARCH_MARGIN)
    p += (residue - p) % 12
    while not is_prime(p):
        p += 12
    if p >= hi:
        raise ValueError(f"no prime = {residue} mod 12 found in [{lo}, {hi})")
    return p


def _strata(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    step = (hi - lo) // count
    return [(lo + i * step, lo + (i + 1) * step) for i in range(count)]


def range_ops(seed: int, rep: int) -> list[list[str]]:
    rng = random.Random(f"range:{seed}:{rep}")
    s = rng.choice(SCAN_STARTS)
    t = rng.choice(MT_STARTS)
    ops = [["scan", str(s), str(s + SCAN_LENGTH), "--output", "json"]]
    for family in MT_FAMILIES:
        ops.append(["mt-check", str(family), str(t), str(t + MT_LENGTH),
                    "--output", "json"])
    return ops


def large_index_ops(seed: int, rep: int) -> list[list[str]]:
    """coeff ops whose 12n + 13 is a prime in each band, or a product p*q.

    Each group splits its band into equal strata and draws one input per
    stratum.  For p*q the two primes share their residue mod 12, which is
    what makes p*q = 1 (mod 12).
    """
    rng = random.Random(f"large-index:{seed}:{rep}")
    ms = []
    for lo, hi in PRIME_BANDS:
        ms.extend(_prime_in(rng, a, b, 1) for a, b in _strata(lo, hi, LARGE_GROUP_SIZE))
    for a, b in _strata(*SEMIPRIME_FACTOR_BAND, LARGE_GROUP_SIZE):
        p = _prime_in(rng, a, b, rng.choice((1, 5, 7, 11)))
        q = _prime_in(rng, *SEMIPRIME_FACTOR_BAND, p % 12)
        ms.append(p * q)
    rng.shuffle(ms)
    return [["coeff", str((m - 13) // 12), "--output", "json"] for m in ms]


def verify_ops(seed: int, rep: int) -> list[list[str]]:
    rng = random.Random(f"verify:{seed}:{rep}")
    limit = rng.choice(VERIFY_LIMITS)
    return [["selftest", "--limit", str(limit), "--prime-bound", str(VERIFY_PRIME_BOUND)]]


WORKLOADS = {
    "range": range_ops,
    "large-index": large_index_ops,
    "verify": verify_ops,
}


def op_count(argv: list[str]) -> int:
    """Units of work in one invocation: indices for scan and mt-check,
    one coefficient for coeff, and the indices of the cm = series sweep
    for selftest."""
    if argv[0] == "scan":
        return int(argv[2]) - int(argv[1]) + 1
    if argv[0] == "mt-check":
        return int(argv[3]) - int(argv[2]) + 1
    if argv[0] == "coeff":
        return 1
    return int(argv[argv.index("--limit") + 1]) + 1
