"""Command line front end.

Verbs:
  verify   run the verification suite (exact, numeric or both) and optionally
           write a JSON report
  comass   run the multi-restart comass search on one catalog form
  planes   sample calibrated planes of one family and print them as JSON
  federer  run both exact diagonal-product routes plus a float re-evaluation
           of the shuffle-sum route (a test of evaluate, not a third route)
  export   write one catalog form to a JSON file
  tables   print the spinor grade-norm table and the middle-degree ratio
           constants

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or IO
error.  The default seed comes from CALIBENCH_SEED when set.

JSON reports carry ``"schema": 1`` and are byte-identical across runs with
equal seeds; wall time, per check and in total, is printed to stdout only,
never serialized.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from calibench import catalog as cat
from calibench import clifford, forms, grassmann, octonion

SCHEMA_VERSION = 1

PLANE_TOL = grassmann.PLANE_TOL
SEARCH_TOL = grassmann.SEARCH_TOL
# search-attained Wirtinger ratio of the calibration: comass_phi's bound, tables' line
PHI_SEARCH_RATIO = 294
# the calibration's diagonal product, above 1; the R^4 Kaehler form's, 1/2, is the sanity value
PHI_DIAGONAL = Fraction(147, 128)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    status: str
    measured: str
    expected: str
    tolerance: float
    seconds: float


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def to_json(self):
        doc = {"schema": SCHEMA_VERSION, "overall": "pass" if self.passed else "fail", **asdict(self)}
        for c in doc["checks"]:
            del c["seconds"]  # a timing would break the byte-identical report
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# exact checks -------------------------------------------------------------------


def _basis():
    return [octonion.Octonion.basis(i) for i in range(8)]


def _chk_octonion_table(seed):
    ok = octonion.MULT_TABLE == octonion.oracle_table()
    return ("equal" if ok else "differs"), "equal", 0.0, ok


def _chk_octonion_basis_identities(seed):
    bad = 0
    es = _basis()
    one = octonion.Octonion.basis(0)
    for x in es:
        if x.conj().conj() != x:
            bad += 1
        if x.conj() * x != one.scale(x.norm_sq()):
            bad += 1
    for x in es:
        for y in es:
            if (x * y).conj() != y.conj() * x.conj():
                bad += 1
    for x in es:
        for y in es:
            for z in es:
                if (x.inner(y * z) != (x * z.conj()).inner(y)
                        or x.inner(z * y) != (z.conj() * x).inner(y)):
                    bad += 1
    return str(bad), "0", 0.0, bad == 0


def _chk_octonion_orthogonal_swap(seed):
    es = _basis()
    bad = 0
    for i, x in enumerate(es):
        for j, y in enumerate(es):
            if i == j:
                continue
            for z in es:
                if x * (y.conj() * z) != -(y * (x.conj() * z)):
                    bad += 1
                if (z * x.conj()) * y != -((z * y.conj()) * x):
                    bad += 1
    return str(bad), "0", 0.0, bad == 0


def _chk_octonion_doubling_rules(seed):
    one = octonion.Octonion.basis(0)
    e = octonion.Octonion.basis(4)
    quat = [octonion.Octonion.basis(i) for i in (1, 2, 3)]
    bad = 0
    for x in quat:
        if (x * e) * x != e or e * (x * e) != x:
            bad += 1
    for x in quat:
        for y in quat:
            if x == y:
                continue
            if x * (y * e) != (y * x) * e or (x * e) * (y * e) != y * x:
                bad += 1
    es = _basis()
    for i in range(1, 8):
        if es[i] * es[i] != -one:
            bad += 1
        for j in range(1, 8):
            if i != j and es[i] * es[j] != -(es[j] * es[i]):
                bad += 1
    return str(bad), "0", 0.0, bad == 0


def _chk_octonion_chain(seed):
    es = _basis()
    q = octonion.chain_product(es)
    p = octonion.conjugation_chain([es[0], es[1]])
    ok = q == es[0] and p == -es[1]
    return (f"chain={q.co}"[:40] if not ok else "1 and -i"), "1 and -i", 0.0, ok


def _rational_pairs(seed):
    """The 1000 coordinate pairs octonion_norm_composition reads: 16 draws per
    pair, by ``random.Random`` seeded with the string
    "octonion_norm_composition <seed>", from the 171 quotients a/b with a in
    -9..9 and b in 1..9, so each draw is a uniform numerator over a uniform
    denominator."""
    rng = random.Random(f"octonion_norm_composition {seed}")
    quotients = [Fraction(a, b) for b in range(1, 10) for a in range(-9, 10)]
    for _ in range(1000):
        co = rng.choices(quotients, k=16)
        yield co[:8], co[8:]


def _chk_octonion_norm_composition(seed):
    """|xy|^2 = |x|^2 |y|^2 on the rational pairs of ``_rational_pairs``."""
    bad = 0
    for cx, cy in _rational_pairs(seed):
        x, y = octonion.Octonion(cx), octonion.Octonion(cy)
        if (x * y).norm_sq() != x.norm_sq() * y.norm_sq():
            bad += 1
    return str(bad), "0", 0.0, bad == 0


def _chk_clifford_generators(seed):
    # generators are signed permutations; compose index maps instead of
    # multiplying dense 256x256 matrices
    bad = 0
    ident = np.arange(clifford.DIM)
    for i in range(16):
        pi, si = clifford._GENS[i]
        p2, s2 = clifford._compose(pi, si, pi, si)
        if not (np.array_equal(p2, ident) and np.all(s2 == -1)):
            bad += 1
        for j in range(i + 1, 16):
            pj, sj = clifford._GENS[j]
            pij, sij = clifford._compose(pi, si, pj, sj)
            pji, sji = clifford._compose(pj, sj, pi, si)
            if not (np.array_equal(pij, pji) and np.array_equal(sij, -sji)):
                bad += 1
    return str(bad), "0", 0.0, bad == 0


def _chk_clifford_volume8(seed):
    M = np.eye(16, dtype=object)
    for i in range(8, 0, -1):
        v = [0] * 8
        v[i - 1] = 1
        M = clifford.rep8_matrix(v) @ M
    want = np.block([
        [np.eye(8, dtype=object), np.zeros((8, 8), dtype=object)],
        [np.zeros((8, 8), dtype=object), -np.eye(8, dtype=object)],
    ])
    ok = (M == want).all()
    return ("diag(id,-id)" if ok else "differs"), "diag(id,-id)", 0.0, bool(ok)


def _roundtrip_blades(seed):
    """The 50 blades clifford_roundtrip reads.  Blade i has size i mod 17, so
    every size 0..16 comes up at every seed, and its indices are drawn from
    1..16 by ``random.Random`` seeded with the string "clifford_roundtrip <seed>"."""
    rng = random.Random(f"clifford_roundtrip {seed}")
    for i in range(50):
        yield tuple(sorted(rng.sample(range(1, 17), i % 17)))


def _chk_clifford_roundtrip(seed):
    """endo_to_form(rep16(I)) = E_I on the blades of ``_roundtrip_blades``."""
    bad = 0
    for idx in _roundtrip_blades(seed):
        M = clifford.rep16(idx)
        if clifford.endo_to_form(M) != forms.RealForm.blade(16, idx):
            bad += 1
    return str(bad), "0", 0.0, bad == 0


def _chk_spinor_split(seed):
    # the volume element E_1...E_16 is diagonal, +1 exactly on the positive half
    V = clifford.rep16(range(1, 17))
    d = np.diagonal(V)
    pos = np.nonzero(d == 1)[0]
    ok = (np.array_equal(V, np.diag(d))
          and np.array_equal(pos, clifford.POSITIVE_SPINOR_INDICES))
    return f"{len(pos)}/{clifford.DIM - len(pos)}", "128/128", 0.0, ok


def _route_check(builder, same, differ):
    """A check that the routes inside ``cat.<builder>`` agree.  The builder is
    looked up at call time, so a rebound ``catalog.build_*`` is the one run."""
    def chk(seed):
        try:
            getattr(cat, builder)()
            return same, same, 0.0, True
        except cat.RouteDisagreement as e:
            return f"{differ}: {e}", same, 0.0, False
    return chk


def _chk_phi_squared(seed):
    phi = cat.build_phi()
    sq = forms.wedge(phi, phi)
    coeff = sq.coefficient(tuple(range(1, 17)))
    ok = sq == forms.RealForm.volume(16) * 294
    return str(coeff), "294", 0.0, ok


def _chk_phi_norm(seed):
    phi = cat.build_phi()
    val = forms.inner_product(phi, phi)
    return str(val), "294", 0.0, val == 294


def _chk_phi_counts(seed):
    comps, _ = cat.phi_components()
    phi = cat.build_phi()
    supports = [set(c.terms()) for c in comps]
    counts = tuple(len(m) for m in supports)
    disjoint = sum(counts) == len(set().union(*supports)) == len(phi)
    ok = counts == (128, 70, 48, 48) and disjoint
    allpm = all(abs(c) == 1 for c in phi.terms().values())
    measured = "/".join(str(c) for c in counts) + (" pm1" if allpm else " coeffs!=1")
    return measured, "128/70/48/48 pm1", 0.0, ok and allpm


def _chk_phi_self_dual(seed):
    phi = cat.build_phi()
    ok = forms.hodge_star(phi) == phi
    return ("self-dual" if ok else "not self-dual"), "self-dual", 0.0, ok


def _chk_phi_phase_family(seed):
    ok = True
    for (c, s) in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))):
        f = cat.build_phi(phase=(c, s))
        ok = ok and forms.wedge(f, f) == forms.RealForm.volume(16) * 294
    return ("294 vol for both" if ok else "mismatch"), "294 vol for both", 0.0, ok


def _chk_cayley_square(seed):
    f = forms.RealForm(8, cat.CAYLEY_TERMS)  # cayley_routes compares the routes
    terms = f.terms()
    ok = (len(terms) == 14
          and all(abs(c) == 1 for c in terms.values())
          and forms.wedge(f, f) == forms.RealForm.volume(8) * 14
          and forms.inner_product(f, f) == 14)
    return f"{len(terms)} terms", "14 terms, square 14 vol", 0.0, ok


def _chk_standard_norms(seed):
    ok = True
    for n, pairing in ((8, cat.STANDARD8), (16, cat.STANDARD16)):
        m = n // 2
        re_om = cat.holomorphic_volume(pairing).re
        ok = ok and forms.inner_product(re_om, re_om) == 2 ** (m - 1)
        ok = ok and forms.hodge_star(re_om) == re_om
        omegas = {k: cat.kaehler_power(pairing, k) for k in range(1, m + 1)}
        for k in range(1, m + 1):
            ok = ok and forms.inner_product(omegas[k], omegas[k]) == math.comb(m, k)
            if 1 <= m - k:
                ok = ok and forms.hodge_star(omegas[k]) == omegas[m - k]
        # top power of the Kaehler form is the volume form
        ok = ok and omegas[m] == forms.RealForm.volume(n)
    return ("all hold" if ok else "mismatch"), "all hold", 0.0, ok


def _chk_spinor_norm_tables(seed):
    fam = cat.build_spinor_family()
    ok = True
    measured = []
    for key in ("psi", "psi_prime", "phi"):
        table = cat.norm_table(fam[key])
        ok = ok and table == cat.NORM_TABLE_EXPECTED[key]
        measured.append(",".join(str(v) for v in table))
    return "; ".join(measured), "; ".join(
        ",".join(str(v) for v in cat.NORM_TABLE_EXPECTED[k]) for k in ("psi", "psi_prime", "phi")
    ), 0.0, ok


def _chk_spinor_pullback(seed):
    ok = cat.spinor_pullback_phi() == cat.build_phi()
    return ("equal" if ok else "differ"), "equal", 0.0, ok


def _chk_spinor_duality(seed):
    fam = cat.build_spinor_family()
    ok = True
    for key in ("psi", "psi_prime", "phi"):
        f = fam[key]
        for k in range(0, 17, 2):
            sign = 1 if k % 4 == 0 else -1
            ok = ok and forms.hodge_star(f.grade_part(k)) == f.grade_part(16 - k) * sign
    return ("signs hold" if ok else "mismatch"), "signs hold", 0.0, ok


def _chk_federer_routes(seed):
    value = grassmann.federer_product(cat.build_phi())
    sanity = grassmann.federer_product(forms.RealForm(4, {(1, 2): 1, (3, 4): 1}))
    ok = value == PHI_DIAGONAL and sanity == Fraction(1, 2)
    return f"{value} and {sanity}", "147/128 and 1/2", 0.0, ok


# numeric checks ------------------------------------------------------------------


def _planes_check(case):
    def chk(seed):
        phi = cat.build_phi()
        samples = grassmann.gen_calibrated(case, 100, seed)
        worst = max(abs(forms.evaluate(phi, s.frame) - 1.0) for s in samples)
        return _fmt(worst), "<= " + _fmt(PLANE_TOL), PLANE_TOL, worst <= PLANE_TOL
    return chk


def _chk_case4_rows(seed):
    samples = grassmann.gen_calibrated(4, 100, seed)
    worst = max(abs(grassmann.symplectic_row_value(s.spec.matrix) - 1.0) for s in samples)
    return _fmt(worst), "<= " + _fmt(PLANE_TOL), PLANE_TOL, worst <= PLANE_TOL


def _chk_case4_perturb(seed):
    phi = cat.build_phi()
    worst = -1.0
    for s in grassmann.gen_calibrated(4, 30, seed):
        th = s.meta["theta"]
        pert = grassmann.NormalFormSpec(s.spec.matrix, (th, th, th + 0.05, th + 0.05))
        worst = max(worst, forms.evaluate(phi, grassmann.realize(pert)))
    bound = 1.0 - 1e-6
    return _fmt(worst), "< " + _fmt(bound), 1e-6, worst < bound


def _chk_minor_identities(seed):
    rng = np.random.default_rng([seed, 23])
    worst_res = 0.0
    worst_mixed = 0.0
    worst_beta = -1.0
    for _ in range(100):
        U = grassmann.sample_unitary(rng)
        angles = tuple(sorted(float(a) for a in rng.uniform(0, math.pi / 2, 4)))
        rep = grassmann.minor_identity_check(grassmann.NormalFormSpec(U, angles))
        worst_res = max(worst_res, rep.max_residual)
        worst_mixed = max(worst_mixed, rep.mixed_residual)
        worst_beta = max(worst_beta, rep.beta_value)
    ok = worst_res < 1e-10 and worst_mixed < 1e-10 and worst_beta <= 1.0 + 1e-12
    measured = f"res {_fmt(worst_res)}, mixed {_fmt(worst_mixed)}, bound {_fmt(worst_beta)}"
    return measured, "res < 1e-10, mixed < 1e-10, bound <= 1", 1e-10, ok


def _normal_form(rng):
    """A random unitary basis with sorted acute angles; half the time the
    last angle is redrawn in [theta_3, pi]."""
    U = grassmann.sample_unitary(rng)
    th = np.sort(rng.uniform(0, math.pi / 2, 4))
    if rng.uniform() < 0.5:
        th[3] = rng.uniform(th[2], math.pi)
    return grassmann.NormalFormSpec(U, tuple(float(t) for t in th))


def _chk_closed_form(seed):
    phi = cat.build_phi()
    rng = np.random.default_rng([seed, 24])
    worst = 0.0
    for _ in range(50):
        spec = _normal_form(rng)
        worst = max(worst, abs(forms.evaluate(phi, grassmann.realize(spec))
                               - grassmann.calibration_value_closed(spec)))
    return _fmt(worst), "<= " + _fmt(PLANE_TOL), PLANE_TOL, worst <= PLANE_TOL


def _chk_kaehler_roundtrip(seed):
    rng = np.random.default_rng([seed, 25])
    worst = 0.0
    for _ in range(25):
        spec = _normal_form(rng)
        ang = grassmann.kaehler_angles(grassmann.realize(spec))
        worst = max(worst, float(np.abs(np.sort(np.sin(ang)) - np.sort(np.sin(spec.angles))).max()))
    return _fmt(worst), "<= 1e-08", 1e-8, worst <= 1e-8


def _chk_gradient(seed):
    rng = np.random.default_rng([seed, 26])
    entries = cat.catalog()
    names = sorted(entries)
    h = 1e-5
    worst = 0.0
    for t in range(20):
        entry = entries[names[int(rng.integers(0, len(names)))]]
        f = entry.form
        k = f.grade()
        M = grassmann._retract(rng.standard_normal((f.n, k)))
        G = grassmann.frame_gradient(f, M)
        D = rng.standard_normal((f.n, k))
        D /= np.linalg.norm(D)
        fd = (forms.evaluate(f, M + h * D) - forms.evaluate(f, M - h * D)) / (2 * h)
        an = float((G * D).sum())
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return _fmt(worst), "< 1e-06", 1e-6, worst < 1e-6


def _chk_spinor_kernel(seed):
    phi = cat.build_phi()
    kernel = grassmann._search_kernel(phi)
    rng = np.random.default_rng([seed, 28])
    d_value = d_grad = 0.0
    for _ in range(20):
        M = grassmann._retract(rng.standard_normal((16, 8)))
        (f,), state = kernel.value(M[None])
        d_value = max(d_value, abs(f - forms.evaluate(phi, M)))
        diff = grassmann._project(M, kernel.gradient(state)[0] - grassmann.frame_gradient(phi, M))
        d_grad = max(d_grad, float(np.abs(diff).max()))
    ok = kernel.name == "clifford" and d_value <= 1e-12 and d_grad <= 1e-12
    measured = f"{kernel.name} kernel: value {_fmt(d_value)}, projected gradient {_fmt(d_grad)}"
    return measured, "clifford kernel: both <= 1e-12", 1e-12, ok


def _chk_spinor_value_bound(seed):
    fam = cat.build_spinor_family()
    phi16 = fam["phi"]
    rng = np.random.default_rng([seed, 27])
    bound = math.sqrt(2.0) + PLANE_TOL
    worst = 0.0
    for k in range(2, 17, 2):
        part = phi16.grade_part(k)
        if not part.terms():
            continue
        for _ in range(40):
            M = grassmann._retract(rng.standard_normal((16, k)))
            worst = max(worst, abs(forms.evaluate(part, M)))
    return _fmt(worst), "<= sqrt(2) + 1e-09", PLANE_TOL, worst <= bound


def _chk_comass_blade(seed):
    f = forms.RealForm(16, {(1, 2): 1})
    rep = grassmann.comass_search(f, restarts=4, iters=100, seed=seed, name="blade")
    return _fmt(rep.best_value), "1 within 1e-09", PLANE_TOL, abs(rep.best_value - 1.0) <= PLANE_TOL


def _chk_comass_phi(seed, restarts=20, iters=300):
    rep = grassmann.comass_search(cat.build_phi(), restarts=restarts, iters=iters, seed=seed, name="phi")
    ok = (1.0 - SEARCH_TOL <= rep.best_value <= 1.0 + PLANE_TOL
          and rep.wirt_ratio is not None and rep.wirt_ratio >= PHI_SEARCH_RATIO * (1 - 1e-5))
    measured = f"best {_fmt(rep.best_value)}, ratio {_fmt(rep.wirt_ratio)}"
    return measured, f"best in [1-1e-06, 1+1e-09], ratio >= {PHI_SEARCH_RATIO}(1-1e-05)", SEARCH_TOL, ok


_NEVER_EXCEED_SUITE = ("cayley", "re_omega_8", "omega2", "sigma2", "phi4_spinor", "phi6_spinor")


def _chk_comass_never_exceed(seed, names=_NEVER_EXCEED_SUITE, restarts=8, iters=150):
    entries = cat.catalog()
    worst = -math.inf
    for name in names:
        rep = grassmann.comass_search(entries[name].form, restarts=restarts, iters=iters,
                                      seed=seed, name=name)
        worst = max(worst, rep.best_value)
    return _fmt(worst), "<= 1 + 1e-09", PLANE_TOL, worst <= 1.0 + PLANE_TOL


def _chk_federer_float(seed):
    # federer_routes proves both exact routes give PHI_DIAGONAL
    residual = abs(grassmann.federer_eval(cat.build_phi()) - float(PHI_DIAGONAL))
    measured = f"{PHI_DIAGONAL}, float residual {_fmt(residual)}"
    return measured, "147/128, residual < 1e-09", PLANE_TOL, residual < PLANE_TOL


_EXACT_CHECKS = (
    ("octonion_table", "multiplication table equals the recursive pair-doubling oracle", _chk_octonion_table),
    ("octonion_basis_identities", "conjugation, norm and pairing-adjoint identities hold on the basis", _chk_octonion_basis_identities),
    ("octonion_orthogonal_swap", "orthogonal swap identities hold on all orthogonal basis triples", _chk_octonion_orthogonal_swap),
    ("octonion_doubling_rules", "quaternion-pair product rules hold for distinct imaginary units", _chk_octonion_doubling_rules),
    ("octonion_chain", "right-folded basis chain gives 1 and the two-step conjugation chain gives -i", _chk_octonion_chain),
    ("octonion_norm_composition", "product norm factors exactly over 1000 seeded rational pairs", _chk_octonion_norm_composition),
    ("clifford_generators", "all sixteen generators square to -id and pairwise anticommute", _chk_clifford_generators),
    ("clifford_volume8", "the ordered 8-dim generator product is +id on one summand, -id on the other", _chk_clifford_volume8),
    ("clifford_roundtrip", "form extraction inverts the blade action on 50 seeded blades", _chk_clifford_roundtrip),
    ("spinor_split", "the chirality index sets split 256 as 128 + 128", _chk_spinor_split),
    ("phi_routes", "the two assembly routes of the grade-8 calibration agree", _route_check("build_phi", "agree", "disagree")),
    ("phi_squared", "the calibration wedge-squares to 294 times the volume form", _chk_phi_squared),
    ("phi_norm", "the calibration has squared norm 294", _chk_phi_norm),
    ("phi_counts", "term counts by component are 128/70/48/48 with unit coefficients", _chk_phi_counts),
    ("phi_self_dual", "the calibration equals its Hodge dual", _chk_phi_self_dual),
    ("phi_phase_family", "two exact phase rotations keep the wedge square at 294 vol", _chk_phi_phase_family),
    ("cayley_routes", "the three constructions of the 4-fold cross form agree", _route_check("build_cayley", "agree", "disagree")),
    ("cayley_square", "the 4-fold cross form has 14 unit terms and wedge square 14 vol", _chk_cayley_square),
    ("standard_norms", "Kaehler powers and holomorphic volume parts have the expected norms and duals", _chk_standard_norms),
    ("spinor_norm_tables", "the three spinor-product grade-norm tables match", _chk_spinor_norm_tables),
    ("spinor_closed_forms", "grade-4 and grade-8 spinor parts equal their closed forms", _route_check("build_spinor_family", "equal", "differ")),
    ("spinor_pullback", "an axis-flip pullback carries the grade-8 spinor part onto the calibration", _chk_spinor_pullback),
    ("spinor_duality", "spinor grade parts pair under the Hodge star with signs by grade mod 4", _chk_spinor_duality),
    ("federer_routes", "both exact diagonal-product routes give 147/128; planar sanity 1/2", _chk_federer_routes),
)

_NUMERIC_CHECKS = (
    ("planes_case1", "100 family-1 samples calibrate to 1 within 1e-9", _planes_check(1)),
    ("planes_case2", "100 family-2 samples calibrate to 1 within 1e-9", _planes_check(2)),
    ("planes_case3", "100 family-3 samples calibrate to 1 within 1e-9", _planes_check(3)),
    ("planes_case4", "100 family-4 samples calibrate to 1 within 1e-9", _planes_check(4)),
    ("case4_rows", "family-4 bases satisfy the symplectic row condition within 1e-9", _chk_case4_rows),
    ("case4_perturb", "perturbing the family-4 common angle drops the value below 1 - 1e-6", _chk_case4_perturb),
    ("minor_identities", "split-row minor identities hold over 100 seeded unitaries", _chk_minor_identities),
    ("closed_form", "evaluation matches the trigonometric closed form on 50 seeded normal forms", _chk_closed_form),
    ("kaehler_roundtrip", "angle recovery returns the sine multiset on 25 seeded normal forms", _chk_kaehler_roundtrip),
    ("gradient_check", "analytic frame gradient matches central differences on 20 seeded pairs", _chk_gradient),
    ("spinor_kernel", "the spinor kernel of the search matches evaluation and projected gradient on 20 seeded frames", _chk_spinor_kernel),
    ("spinor_value_bound", "the full spinor product stays below sqrt(2) on random even-grade frames", _chk_spinor_value_bound),
    ("comass_blade", "search on a unit coordinate blade returns 1", _chk_comass_blade),
    ("comass_phi", f"reduced search on the calibration attains 1 with ratio at least {PHI_SEARCH_RATIO}", _chk_comass_phi),
    ("comass_never_exceed", "reduced searches on declared calibrations never exceed 1 + 1e-9", _chk_comass_never_exceed),
    ("federer_float", "float shuffle re-evaluation of the diagonal product matches 147/128", _chk_federer_float),
)


def run_suite(selection, seed):
    """Run the selected checks and collect a SuiteReport.

    Exact checks use rational arithmetic end to end; numeric checks carry
    their tolerance in the report row.  Any exception inside a check is
    reported as a failure of that check, never swallowed.
    """
    if selection not in ("all", "exact", "numeric"):
        raise ValueError("selection must be all, exact or numeric")
    groups = []
    if selection in ("all", "exact"):
        groups.extend(_EXACT_CHECKS)
    if selection in ("all", "numeric"):
        groups.extend(_NUMERIC_CHECKS)
    rows = []
    for check_id, claim, fn in groups:
        t0 = time.perf_counter()
        try:
            measured, expected, tol, ok = fn(seed)
        except Exception as e:  # noqa: BLE001  - report, never hide
            measured, expected, tol, ok = f"error: {e!r}", "no exception", 0.0, False
        rows.append(CheckResult(
            check_id=check_id,
            claim=claim,
            status="pass" if ok else "fail",
            measured=measured,
            expected=expected,
            tolerance=tol,
            seconds=time.perf_counter() - t0,
        ))
    return SuiteReport(suite=selection, seed=seed, checks=tuple(rows))


# export --------------------------------------------------------------------------


def _catalog_entry(name):
    entries = cat.catalog()
    if name not in entries:
        raise KeyError(f"unknown form {name!r}; available: {', '.join(sorted(entries))}")
    return entries[name]


def export_form(name, path):
    form = _catalog_entry(name).form
    with open(path, "w") as fh:
        fh.write(forms.dump_form(form))


# tables ----------------------------------------------------------------------------


def _tables_text():
    fam = cat.build_spinor_family()
    lines = []
    lines.append("spinor product grade-norm table (squared norms by grade)")
    header = f"{'grade':>6} {'psi':>6} {'psi_prime':>10} {'phi':>6}"
    lines.append(header)
    tables = {k: cat.norm_table(fam[k]) for k in ("psi", "psi_prime", "phi")}
    for i, g in enumerate(range(0, 17, 2)):
        lines.append(f"{g:>6} {tables['psi'][i]:>6} {tables['psi_prime'][i]:>10} {tables['phi'][i]:>6}")
    lines.append("")
    lines.append("middle-degree ratio constants (squared)")
    phi = cat.build_phi()
    ratio = forms.wedge(phi, phi).coefficient(tuple(range(1, 17)))
    for text, tag in (
        ("ratio_2 = 2, attained by Kaehler forms", "classical"),
        ("ratio_3 = 4", "classical"),
        ("ratio_4 = 14, attained by 4-fold cross forms", "classical"),
        ("one-grade constants: value 1 in top and bottom grade", "classical"),
        ("grade-2 constant on R^n: floor(n/2)", "classical"),
        ("grade-3 and grade-4 constants on R^7: 7", "classical"),
        ("any grade-k constant on R^n is at most binom(n, k)", "classical"),
        (f"ratio_8 >= {ratio}, from the grade-8 calibration on R^16", "computed_exact"),
        ("ratio_8 <= binom(16, 8) = 12870", "classical"),
        (f"search-attained ratio for the calibration: {PHI_SEARCH_RATIO}", "computed_search"),
    ):
        lines.append(f"  {text}  [{tag}]")
    return "\n".join(lines) + "\n"


# command line ------------------------------------------------------------------------


def _number(kind, ok, need):
    """argparse type: kind(text), rejected as `need` unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_nonneg_int = _number(int, lambda v: v >= 0, "at least 0")


def _default_seed():
    env = os.environ.get("CALIBENCH_SEED")
    if env is None:
        return 0
    try:
        return _nonneg_int(env)
    except (ValueError, argparse.ArgumentTypeError) as e:
        print(f"calibench: error: CALIBENCH_SEED={env!r}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_verify(args):
    t0 = time.perf_counter()
    report = run_suite(args.suite, args.seed)
    for c in report.checks:
        print(f"[{c.status.upper():4}] {c.check_id}: {c.claim} "
              f"(measured {c.measured}; expected {c.expected}) {c.seconds:.2f}s")
    dt = time.perf_counter() - t0
    n = len(report.checks)
    print(f"OVERALL {'PASS' if report.passed else 'FAIL'} ({n} checks, {dt:.1f}s, seed {report.seed})")
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(report.to_json())
        except OSError as e:
            print(f"cannot write {args.json}: {e}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


def _cmd_comass(args):
    try:
        entry = _catalog_entry(args.form)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rep = grassmann.comass_search(entry.form, restarts=args.restarts, iters=args.iters,
                                  tol=args.tol, seed=args.seed, name=args.form)
    dt = time.perf_counter() - t0
    print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    stops = Counter(rec.stop for rec in rep.restart_records)
    print(f"# {args.form}: best {rep.best_value:.12f} from restart {rep.best_restart} in {dt:.1f}s "
          f"on the {rep.kernel} kernel; "
          f"stops: tol {stops['tol']}, line_search {stops['line_search']}, cap {stops['cap']}",
          file=sys.stderr)
    if rep.best_value > entry.comass_expected + PLANE_TOL:
        print(f"# exceeds declared comass {entry.comass_expected}", file=sys.stderr)
        return 1
    return 0


def _cmd_planes(args):
    phi = cat.build_phi()
    samples = grassmann.gen_calibrated(args.case, args.count, args.seed)
    doc = {
        "schema": SCHEMA_VERSION,
        "case": args.case,
        "seed": args.seed,
        "plane_tol": PLANE_TOL,
        "planes": [],
    }
    worst = 0.0
    for s in samples:
        d = s.to_dict()
        value = forms.evaluate(phi, s.frame)
        d["value"] = value
        worst = max(worst, abs(value - 1.0))
        doc["planes"].append(d)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if worst <= PLANE_TOL else 1


def _cmd_federer(args):
    t0 = time.perf_counter()
    phi = cat.build_phi()
    try:
        value = grassmann.federer_product(phi)
        sanity = grassmann.federer_product(forms.RealForm(4, {(1, 2): 1, (3, 4): 1}))
    except cat.RouteDisagreement as e:
        print(e, file=sys.stderr)
        return 1
    residual = abs(grassmann.federer_eval(phi) - float(value))
    dt = time.perf_counter() - t0
    print(f"wedge route      {value}")  # federer_product returns only if both routes agree
    print(f"shuffle route    {value}")
    print(f"float residual   {residual:.3e}")
    print(f"planar sanity    {sanity}")
    print(f"# {dt:.1f}s", file=sys.stderr)
    ok = value == PHI_DIAGONAL and residual < PLANE_TOL and sanity == Fraction(1, 2)
    return 0 if ok else 1


def _cmd_export(args):
    try:
        export_form(args.form, args.out)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot write {args.out}: {e}", file=sys.stderr)
        return 2
    return 0


def _cmd_tables(args):
    print(_tables_text(), end="")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="calibench",
                                description="verification workbench for a grade-8 calibration on R^16")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--suite", choices=("all", "exact", "numeric"), default="all")
    v.add_argument("--seed", type=_nonneg_int, default=None)
    v.add_argument("--json", metavar="PATH", default=None)
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("comass", help="multi-restart comass search on one catalog form")
    c.add_argument("--form", required=True)
    c.add_argument("--restarts", type=_number(int, lambda v: v >= 1, "at least 1"), default=200)
    c.add_argument("--iters", type=_nonneg_int, default=500)
    c.add_argument("--tol", type=_number(float, lambda v: math.isfinite(v) and v >= 0, "finite and at least 0"),
                   default=SEARCH_TOL)
    c.add_argument("--seed", type=_nonneg_int, default=None)
    c.set_defaults(fn=_cmd_comass)

    g = sub.add_parser("planes", help="sample calibrated planes and print them as JSON")
    g.add_argument("--case", type=int, choices=(1, 2, 3, 4), required=True)
    g.add_argument("--count", type=_nonneg_int, default=10)
    g.add_argument("--seed", type=_nonneg_int, default=None)
    g.set_defaults(fn=_cmd_planes)

    f = sub.add_parser("federer", help="exact diagonal-product routes plus a float re-evaluation "
                                       "of the shuffle sum (tests evaluate)")
    f.set_defaults(fn=_cmd_federer)

    e = sub.add_parser("export", help="write one catalog form to a JSON file")
    e.add_argument("--form", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_export)

    t = sub.add_parser("tables", help="print the spinor norm table and ratio constants")
    t.set_defaults(fn=_cmd_tables)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 2


if __name__ == "__main__":
    sys.exit(main())
