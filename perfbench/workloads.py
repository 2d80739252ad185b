"""What the benchmark runs, through calibench's public entry points.

The two workloads are the verify suites.  The searches that ``calibench
comass`` runs are measured beside them, in the kernel child of a traced run.
Every call returns an ``Outcome`` whose ``digest`` must repeat exactly at one
seed; the inputs depend only on the seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("verify_exact", "verify_numeric")

# (catalog name or "cayley_rot", restarts, iterations).  phi matches the
# `comass_phi` check; the rotated Cayley form has 40 restarts because, in
# generic position, no restart starts on a blade of value 1.
COMASS_SEARCHES = (
    ("phi", 20, 300),
    ("phi10_spinor", 20, 200),
    ("cayley_rot", 40, 200),
)


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    digest: str
    comass_gap: float | None = None


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _fraction_inverse(A):
    """Exact inverse of a square matrix of Fractions by Gauss-Jordan."""
    n = len(A)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def seeded_rotation(seed, n=8):
    """Exact rational orthogonal matrix: the Cayley transform (I+A)^-1 (I-A)
    of a skew matrix A with entries in {-1/2, 0, 1/2} drawn from the seed."""
    rng = np.random.default_rng([seed, 8])
    half = Fraction(1, 2)
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = half * int(rng.integers(-1, 2))
            A[i][j], A[j][i] = a, -a
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + A[i][j] for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - A[i][j] for j in range(n)] for i in range(n)]
    inv = _fraction_inverse(plus)
    return [[sum(inv[i][t] * minus[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def is_exactly_orthogonal(Q):
    n = len(Q)
    return all(
        sum(Q[t][i] * Q[t][j] for t in range(n)) == int(i == j)
        for i in range(n) for j in range(n)
    )


class SetupError(RuntimeError):
    """A workload input violates its precondition."""


def rotated_cayley(seed):
    """The catalog Cayley form pulled back by the seeded rotation.

    Comass is invariant under O(n), so its comass is still 1, but no
    coefficient reaches 1: the blade start of restart 0 is not the answer.
    """
    from calibench import catalog, forms

    Q = seeded_rotation(seed)
    if not is_exactly_orthogonal(Q):
        raise SetupError("seeded rotation is not exactly orthogonal")
    form = forms.pullback(catalog.catalog()["cayley"].form, np.array(Q, dtype=object))
    if max(abs(c) for c in form.terms().values()) >= 1:
        raise SetupError("rotated Cayley form has a coefficient of absolute value >= 1")
    return form


def verify(workload, seed):
    """The measured call of a workload: ``calibench verify --suite exact`` or
    ``--suite numeric``.  A failed check counts in ``failed``."""
    from calibench import cli

    report = cli.run_suite(workload.split("_", 1)[1], seed)
    failed = sum(c.status != "pass" for c in report.checks)
    return Outcome(len(report.checks), failed, _sha(report.to_json()))


def comass_setup(seed):
    """What ``calibench comass`` builds before searching: the catalog, plus
    the rotated Cayley form.  Name -> (form, declared comass), or the
    SetupError of an input that failed its precondition."""
    import calibench.cli  # noqa: F401 - calibench comass starts from the CLI
    from calibench import catalog

    entries = catalog.catalog()
    state = {name: (entries[name].form, entries[name].comass_expected)
             for name, _, _ in COMASS_SEARCHES if name in entries}
    try:
        state["cayley_rot"] = (rotated_cayley(seed), entries["cayley"].comass_expected)
    except SetupError as e:
        state["cayley_rot"] = e
    return state


def comass_searches(state, seed):
    """Run the COMASS_SEARCHES through ``comass_search`` with its default
    tolerance and pool.  Returns the Outcome and each search's seconds.  A
    search fails when it raises, when its input failed its precondition, or
    when its best value exceeds the declared comass by more than PLANE_TOL."""
    from calibench import cli, grassmann

    failed, values, seconds, gap = 0, {}, {}, None
    for name, restarts, iters in COMASS_SEARCHES:
        t0 = time.perf_counter()
        try:
            if isinstance(state[name], SetupError):
                raise state[name]
            form, expected = state[name]
            rep = grassmann.comass_search(form, restarts=restarts, iters=iters,
                                          seed=seed, name=name)
        except Exception as e:  # noqa: BLE001 - a raised search is a failed search
            values[name] = f"error: {e!r}"
            failed += 1
            continue
        finally:
            seconds[name] = time.perf_counter() - t0
        values[name] = format(rep.best_value, ".17g")
        if not rep.best_value <= float(expected) + cli.PLANE_TOL:
            failed += 1
        if name == "cayley_rot":
            gap = 1.0 - rep.best_value
    digest = _sha(json.dumps(values, sort_keys=True))
    return Outcome(len(COMASS_SEARCHES), failed, digest, gap), seconds
