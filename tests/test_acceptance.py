"""Acceptance gate: eight criteria, one printed pass/fail line each.

Every criterion runs check bodies of `calibench verify`, named by check id,
with seed 0 and a time limit, so each body computes what `verify --seed 0`
computes.  The one exception is criterion 8's two search bodies, which take
the acceptance sizes: 200 restarts of 500 iterations on the calibration, and
40 restarts of 200 iterations on each of 13 declared calibrations.  Run
`pytest -s tests/test_acceptance.py` to see the lines while the tests run;
without -s pytest shows them for failing criteria only.
"""

import time

from calibench import cli

NEVER_EXCEED = (
    "cayley", "re_omega_8", "omega1", "omega2", "omega3", "omega4", "sigma2",
    "phi4_spinor", "phi6_spinor", "phi8_spinor", "phi10_spinor", "phi12_spinor",
    "phi16_spinor",
)


def _criterion(num, checks, limit):
    """Run each check id's body with seed 0 and its keyword arguments, print
    the criterion line and assert that every body passed, within `limit`
    seconds in total."""
    bodies = {cid: fn for cid, _claim, fn in cli._EXACT_CHECKS + cli._NUMERIC_CHECKS}
    t0 = time.perf_counter()
    rows = [(cid, *bodies[cid](0, **kwargs)) for cid, kwargs in checks.items()]
    dt = time.perf_counter() - t0
    ok = all(passed for *_, passed in rows) and dt < limit
    detail = "; ".join(
        f"{cid} {'ok' if passed else 'FAILED'} (measured {measured}; expected {expected})"
        for cid, measured, expected, _tol, passed in rows
    )
    detail += f"; {dt:.1f}s (< {limit:g}s)"
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_main_form_identities():
    _criterion(1, {"phi_squared": {}, "phi_norm": {}, "phi_counts": {}}, limit=5.0)


def test_criterion_2_cayley_routes():
    _criterion(2, {"cayley_routes": {}, "cayley_square": {}}, limit=10.0)


def test_criterion_3_octonion_identities():
    _criterion(3, {
        "octonion_basis_identities": {},
        "octonion_orthogonal_swap": {},
        "octonion_doubling_rules": {},
        "octonion_chain": {},
        "octonion_norm_composition": {},
    }, limit=10.0)


def test_criterion_4_clifford_layer():
    _criterion(4, {
        "clifford_volume8": {},
        "clifford_generators": {},
        "clifford_roundtrip": {},
        "spinor_split": {},
    }, limit=5.0)


def test_criterion_5_spinor_family():
    _criterion(5, {
        "spinor_norm_tables": {},
        "spinor_closed_forms": {},
        "spinor_pullback": {},
        "spinor_duality": {},
    }, limit=10.0)


def test_criterion_6_diagonal_product():
    _criterion(6, {"federer_routes": {}, "federer_float": {}}, limit=5.0)


def test_criterion_7_calibrated_families():
    _criterion(7, {
        "planes_case1": {},
        "planes_case2": {},
        "planes_case3": {},
        "planes_case4": {},
        "case4_rows": {},
        "minor_identities": {},
    }, limit=10.0)


def test_criterion_8_comass_search():
    _criterion(8, {
        "comass_phi": {"restarts": 200, "iters": 500},
        "comass_never_exceed": {"names": NEVER_EXCEED, "restarts": 40, "iters": 200},
        "gradient_check": {},
        "spinor_kernel": {},
    }, limit=50.0)
