"""Apply hand-written mutations of the dynamic program and report which the tests kill.

Usage, from anywhere:

    python3 tools/mutants.py

Each mutant replaces one piece of ``src/ambiclt/worst_case.py`` with a
plausible slip.  For each one this copies ``src``, ``tests`` and
``pyproject.toml`` of the checkout holding this file to a temporary
directory, applies the mutant there, runs ``tests/test_worst_case.py`` on
the copy (stopping at its first failure) and prints ``killed`` if a test
failed and ``survived`` if all passed.  The checkout itself is never
written.  A mutant whose text no longer occurs in the source is reported as
``stale`` instead of being run.  The exit status is 0 when every mutant is
killed and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("src", "ambiclt", "worst_case.py")

# (name, text of worst_case.py, its replacement): every occurrence is replaced
MUTANTS = [
    ("split mask from block-relative rows",
     "rows = np.arange(r0, r1)[:, None]",
     "rows = np.arange(r1 - r0)[:, None]"),
    ("expectation reads the first block's rows",
     "V[grid.landing(m, 0, da, r0, r1)]",
     "V[grid.landing(m, 0, da, 0, r1 - r0)]"),
    ("the split row takes the first mean's column",
     "where=rows >= splits[m - 1]",
     "where=rows > splits[m - 1]"),
    ("one near cell skips its exact test",
     "        ii, jj = np.nonzero(near & inside)\n",
     "        ii, jj = np.nonzero(near & inside)\n        ii, jj = ii[1:], jj[1:]\n"),
    ("gapped rows counted one short",
     "                                  - start[gapped])",
     "                                  - start[gapped] - 1)"),
    ("closed-form tail starts a layer late",
     "np.arange(1, steps - m + 1)",
     "np.arange(2, steps - m + 2)"),
    ("exact sums stay in int64 a layer too long",
     "dtype is not _exact_dtype(D, steps - m + 1)",
     "dtype is not _exact_dtype(D, steps - m)"),
    ("a law read at another law's center column",
     "grid.landing(m, 1, d)] for d in db])",
     "grid.landing(m, 1, d)] for d in db[::-1]])"),
    ("the sign test in int64",
     "np.asarray(v, dtype=object) for v in (m, a, b, pt, qt)",
     "np.asarray(v, dtype=np.int64) for v in (m, a, b, pt, qt)"),
    ("payoff numerators not scaled to the common denominator",
     "(num * (Q // den)).T",
     "num.T"),
    ("the product model's value read over D**n alone",
     "Fraction(best, route.D ** n * Q)",
     "Fraction(best, route.D ** n)"),
]


def run_mutant(source: str, old: str, new: str) -> str:
    """'killed', 'survived' or 'stale' for one mutant of ``source``."""
    if old not in source:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(HERE, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(HERE, "pyproject.toml"), tmp)
        with open(os.path.join(tmp, TARGET), "w") as f:
            f.write(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             os.path.join("tests", "test_worst_case.py")],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # pytest exits 1 when a test failed; any other status is an error of the run
    if result.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {result.returncode}")
    return "killed" if result.returncode == 1 else "survived"


def main() -> int:
    with open(os.path.join(HERE, TARGET)) as f:
        source = f.read()
    outcomes = []
    for name, old, new in MUTANTS:
        outcome = run_mutant(source, old, new)
        outcomes.append(outcome)
        print(f"{outcome:9s} {name}", flush=True)
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
