"""Record `coeff N --method cm --output json` goldens with sympy factoring.

    PYTHONPATH=src python3 tests/record_coeff_golden.py N ...

For each N, stdout of `eta26 coeff N --method cm --output json` is written
to tests/golden/coeff-N---method-cm.json, with hecke's `factorize` replaced
by a `Factorization` built from `sympy.factorint`.  So a golden can be
recorded at an index whose 12N + 13 the package's own factoring cannot
split, and it does not depend on the factoring it is later used to check.
The file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import sympy

from eta26 import cli, hecke
from eta26.arith import Factorization

GOLDEN = Path(__file__).resolve().parent / "golden"


def _sympy_factorize(m: int) -> Factorization:
    return Factorization(m, tuple(sorted(sympy.factorint(m).items())))


def main(argv: list[str]) -> int:
    hecke.factorize = _sympy_factorize
    for n in argv:
        args = ["coeff", n, "--method", "cm"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(args + ["--output", "json"])
        if code != 0:
            print(f"{' '.join(args)} exited {code}", file=sys.stderr)
            return 1
        path = GOLDEN / f"{'-'.join(args)}.json"
        path.write_bytes(out.getvalue().encode())
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
