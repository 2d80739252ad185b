"""Oriented 8-planes in R^16: normal forms, calibrated families, comass search.

A plane is an orthonormal 16x8 column frame.  The normal form is built from
an 8x8 unitary matrix [e_1..e_8] and four angles: plane columns are

    xi_{2m-1} = realify(e_{2m-1})
    xi_{2m}   = realify(i e_{2m-1} cos(theta_m) + e_{2m} sin(theta_m))

with realify interleaving real and imaginary parts (standard complex
structure).  theta_1 <= theta_2 <= theta_3 in [0, pi/2], theta_4 in
[theta_3, pi]; the phase is the argument of det of the unitary.  Calibrated
family 3 uses the same recipe on a block-diagonal basis diag(U1, U2) with
angles (t1, t1, t2, t2), one calibrated 4-plane per C^4 factor.

The module also carries the two exact Federer-style product routes for
middle-degree forms, the 4x4 minor identities of the split frame rows, and a
projected-gradient ascent over the Stiefel manifold used to certify comass
lower bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from calibench.catalog import (
    STANDARD16,
    RouteDisagreement,
    build_phi,
    holomorphic_volume,
    kaehler_form,
    kaehler_power,
)
from calibench.forms import RealForm, _det_sum, _term_arrays, evaluate, wedge

__all__ = [
    "NormalFormSpec",
    "PlaneSample",
    "ComassReport",
    "MinorCheckReport",
    "realify",
    "realize",
    "kaehler_angles",
    "sample_group",
    "gen_calibrated",
    "calibration_value_closed",
    "symplectic_row_value",
    "minor_identity_check",
    "federer_product",
    "federer_routes",
    "federer_eval",
    "frame_value",
    "frame_gradient",
    "comass_search",
    "PLANE_TOL",
    "SEARCH_TOL",
]

PLANE_TOL = 1e-9
SEARCH_TOL = 1e-6

_UNITARY_RESIDUAL = 1e-10


@dataclass(frozen=True)
class NormalFormSpec:
    """Unitary 8x8 matrix plus the four angles of the normal form."""

    matrix: np.ndarray
    angles: tuple

    def __post_init__(self):
        U = np.asarray(self.matrix, dtype=complex)
        if U.shape != (8, 8):
            raise ValueError("matrix must be 8x8")
        if not np.linalg.norm(U.conj().T @ U - np.eye(8)) <= _UNITARY_RESIDUAL:
            raise ValueError("matrix is not unitary to 1e-10")
        th = tuple(float(t) for t in self.angles)
        if len(th) != 4:
            raise ValueError("need four angles")
        eps = 1e-12
        t1, t2, t3, t4 = th
        if not (-eps <= t1 <= t2 + eps and t2 <= t3 + eps and t3 <= math.pi / 2 + eps):
            raise ValueError("need 0 <= theta1 <= theta2 <= theta3 <= pi/2")
        if not (t3 - eps <= t4 <= math.pi + eps):
            raise ValueError("need theta3 <= theta4 <= pi")
        object.__setattr__(self, "matrix", U)
        object.__setattr__(self, "angles", th)

    def to_dict(self):
        return {
            "matrix_re": [[float(x) for x in row] for row in self.matrix.real],
            "matrix_im": [[float(x) for x in row] for row in self.matrix.imag],
            "angles": list(self.angles),
        }


def realify(z):
    """C^m vector -> R^{2m} with interleaved real/imaginary parts."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(2 * z.shape[0])
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def _plane(U, angles):
    """16x8 frame of the normal-form recipe on the unitary basis U."""
    cols = []
    for m, t in enumerate(angles):
        e_odd = U[:, 2 * m]
        e_even = U[:, 2 * m + 1]
        cols.append(realify(e_odd))
        cols.append(realify(1j * e_odd * math.cos(t) + e_even * math.sin(t)))
    return np.column_stack(cols)


def realize(spec):
    """16x8 orthonormal frame of the normal-form plane."""
    return _plane(spec.matrix, spec.angles)


# multiplication by i on realify's interleaved coordinates: (x, y) -> (-y, x)
_J16 = np.kron(np.eye(8), np.array([[0.0, -1.0], [1.0, 0.0]]))


@functools.cache
def _omega4_form():
    return kaehler_power(STANDARD16, 4)


def kaehler_angles(frame):
    """Angles in [0, pi/2] (ascending) of an orthonormal 16x8 frame, plus an
    orientation sign from the top Kaehler power (+1 when that value is
    numerically zero)."""
    M = np.asarray(frame)
    if np.iscomplexobj(M):
        raise ValueError("complex entries in frame")
    M = M.astype(float, copy=False)
    if M.shape != (16, 8):
        raise ValueError("frame must be 16x8")
    if not np.linalg.norm(M.T @ M - np.eye(8)) <= 1e-8:
        raise ValueError("frame is not orthonormal")
    K = (_J16 @ M).T @ M
    s = np.linalg.svd(K, compute_uv=False)
    if np.abs(s[0::2] - s[1::2]).max() > 1e-8:
        raise ValueError("singular values of the Kaehler pairing do not pair up")
    cosines = np.clip((s[0::2] + s[1::2]) / 2.0, 0.0, 1.0)
    angles = np.arccos(cosines)[::-1]
    pf = evaluate(_omega4_form(), M)
    sign = 1 if abs(pf) < 1e-12 else (1 if pf > 0 else -1)
    return np.sort(angles), sign


# group samplers --------------------------------------------------------------

_SP_J = np.kron(np.eye(4), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def sample_group(kind, rng, n=8):
    """Draw a matrix from u(nitary), su (determinant one) or sp4 (compact
    symplectic, 8x8).  `rng` is an integer seed or a numpy Generator.
    Membership residuals are asserted below 1e-10."""
    rng = np.random.default_rng(rng)
    if kind in ("u", "su"):
        while True:
            Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
            Q, R = np.linalg.qr(Z)
            d = np.diag(R)
            if np.abs(d).min() > 1e-12:
                break
        Q = Q * (d / np.abs(d))
        if kind == "su":
            det = np.linalg.det(Q)
            Q[:, 0] *= det.conjugate() / abs(det)
            if abs(np.linalg.det(Q) - 1) > _UNITARY_RESIDUAL:
                raise AssertionError("determinant correction failed")
        if np.linalg.norm(Q.conj().T @ Q - np.eye(n)) > _UNITARY_RESIDUAL:
            raise AssertionError("unitary residual too large")
        return Q
    if kind == "sp4":
        if n != 8:
            raise ValueError("sp4 lives in dimension 8")
        B = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / math.sqrt(2)
        A = (B - B.conj().T) / 2
        A = (A + _SP_J @ A.conj() @ np.linalg.inv(_SP_J)) / 2
        # exp(A) for skew-Hermitian A, from the Hermitian eigensystem of iA
        w, V = np.linalg.eigh(1j * A)
        S = (V * np.exp(-1j * w)) @ V.conj().T
        if np.linalg.norm(S.T @ _SP_J @ S - _SP_J) > _UNITARY_RESIDUAL:
            raise AssertionError("symplectic residual too large")
        if np.linalg.norm(S.conj().T @ S - np.eye(8)) > _UNITARY_RESIDUAL:
            raise AssertionError("unitary residual too large")
        if abs(np.linalg.det(S) - 1) > _UNITARY_RESIDUAL:
            raise AssertionError("symplectic sample must have determinant one")
        return S
    raise ValueError(f"unknown group kind {kind!r}")


# calibrated plane families ----------------------------------------------------


@dataclass(frozen=True)
class PlaneSample:
    case: int
    frame: np.ndarray
    spec: NormalFormSpec | None
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        d = {
            "case": self.case,
            "frame": [[float(x) for x in row] for row in self.frame],
        }
        if self.spec is not None:
            d["spec"] = self.spec.to_dict()
        if self.meta:
            d["meta"] = {
                k: (v if not isinstance(v, np.ndarray) else v.tolist())
                for k, v in self.meta.items()
            }
        return d


def gen_calibrated(case, count, seed):
    """Sample `count` calibrated planes of one of the four families.

    1: angles pi/2 with a determinant-one unitary basis.
    2: angles 0 (complex 4-planes), any unitary basis.
    3: the normal form on diag(U1, U2) with angles (t1, t1, t2, t2), for
       independent determinant-one 4x4 bases and angles in [0, pi/2): one
       calibrated 4-plane per C^4 factor.
    4: common angle in (0, pi/2) on a block-diagonal determinant-one basis
       composed with a compact symplectic matrix.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1, 2, 3 or 4")
    rng = np.random.default_rng([seed, case])
    out = []
    for _ in range(count):
        if case == 1:
            U = sample_group("su", rng)
            spec = NormalFormSpec(U, (math.pi / 2,) * 4)
            out.append(PlaneSample(1, realize(spec), spec))
        elif case == 2:
            U = sample_group("u", rng)
            spec = NormalFormSpec(U, (0.0,) * 4)
            out.append(PlaneSample(2, realize(spec), spec))
        else:
            U1 = sample_group("su", rng, n=4)
            U2 = sample_group("su", rng, n=4)
            D = np.block([[U1, np.zeros((4, 4))], [np.zeros((4, 4)), U2]])
            if case == 3:
                th1 = float(rng.uniform(0, math.pi / 2))
                th2 = float(rng.uniform(0, math.pi / 2))
                meta = {
                    "angles": [th1, th2],
                    "basis_left_re": U1.real.tolist(),
                    "basis_left_im": U1.imag.tolist(),
                    "basis_right_re": U2.real.tolist(),
                    "basis_right_im": U2.imag.tolist(),
                }
                out.append(PlaneSample(3, _plane(D, (th1, th1, th2, th2)), None, meta))
            else:
                S = sample_group("sp4", rng)
                th = float(rng.uniform(0.05, math.pi / 2 - 0.05))
                spec = NormalFormSpec(D @ S, (th,) * 4)
                out.append(PlaneSample(4, realize(spec), spec, {"theta": th}))
    return out


# closed-form evaluation of the main calibration on normal forms ---------------

# Angle pairs (i, j), ordered so that pair p ^ 1 is the complement of pair p;
# the even indices are the primary pairs (1,2), (1,3), (1,4).
_ANGLE_PAIRS = np.array(((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)))
_COMPLEMENT = np.arange(6) ^ 1
_PAIR_COLS = np.array([[2 * i, 2 * i + 1, 2 * j, 2 * j + 1] for i, j in _ANGLE_PAIRS])


def _pair_minors(R):
    """The six 4x4 minors of the 4-row block R on the columns of each angle
    pair, in one batched det."""
    return np.linalg.det(R[:, _PAIR_COLS].transpose(1, 0, 2))


def _minor_table(spec):
    """Pair minors of the top (F) and bottom (G) four basis rows, and the
    signed-cosine mixed sum over angle pairs p = (i, j) with complement
    (k, l): sum_p s_i s_j c_k c_l (det F_p + det G_p), complex."""
    th = np.asarray(spec.angles)
    det_f = _pair_minors(spec.matrix[:4])
    det_g = _pair_minors(spec.matrix[4:])
    w = np.sin(th)[_ANGLE_PAIRS].prod(axis=1) * np.cos(th)[_ANGLE_PAIRS[_COMPLEMENT]].prod(axis=1)
    return det_f, det_g, complex(w @ (det_f + det_g))


def calibration_value_closed(spec):
    """Trigonometric closed form of the grade-8 calibration on a normal-form
    plane: product of sines times the real part of the basis determinant,
    product of cosines, plus the mixed minor sum with signed cosines."""
    th = np.asarray(spec.angles)
    _, _, mixed = _minor_table(spec)
    return float(np.sin(th).prod() * np.linalg.det(spec.matrix).real + np.cos(th).prod()
                 + mixed.real)


def symplectic_row_value(U):
    """Real part of half the squared symplectic form on the first four rows."""
    return float(_pair_minors(np.asarray(U, dtype=complex)[:4]).sum().real)


# minor identities --------------------------------------------------------------


@dataclass(frozen=True)
class MinorCheckReport:
    """Residuals and bounds of the split-row minor identities of one basis."""

    max_residual: float
    beta_value: float
    mixed_residual: float


@functools.cache
def _mixed_form():
    """(O1 + O2) ^ omega^2/2 as a (re, im) pair of real 8-forms."""
    o1 = holomorphic_volume(STANDARD16.subset(0, 4))
    o2 = holomorphic_volume(STANDARD16.subset(4, 8))
    om = kaehler_form(STANDARD16)
    om2_half = wedge(om, om) * Fraction(1, 2)
    tot = o1 + o2
    return wedge(tot.re, om2_half), wedge(tot.im, om2_half)


def minor_identity_check(spec):
    """Verify the split-row minor identities of one normal-form basis.

    * det(G_p) = phase * conj(det(F_{p^c})) for every angle pair p, where F
      and G are the top and bottom 4 rows and p^c is the complementary pair
      (the maximum residual is reported),
    * the triple-sum bound value |det F_p + phase conj(det F_{p^c})| summed
      over the primary pairs (at most 1 for unitary input),
    * the mixed 8-form evaluated on the realized plane against the closed
      minor sum with signed cosines (residual reported).
    """
    det_f, det_g, closed = _minor_table(spec)
    dual = np.linalg.det(spec.matrix) * det_f[_COMPLEMENT].conj()
    frame = realize(spec)
    re_f, im_f = _mixed_form()
    measured = complex(evaluate(re_f, frame), evaluate(im_f, frame))
    return MinorCheckReport(
        max_residual=float(np.abs(det_g - dual).max()),
        beta_value=float(np.abs(det_f + dual)[0::2].sum()),
        mixed_residual=abs(measured - closed),
    )


# Federer-style exact product ----------------------------------------------------


def _shuffle_sign(indices):
    """Sign of the shuffle permutation (I, I^c), I increasing 1-based."""
    inv = sum(idx - 1 - t for t, idx in enumerate(indices))
    return -1 if inv & 1 else 1


def _shuffle_sum(n, coeff):
    """sum over increasing I with |I| = n/2 of sign(I, I^c) coeff(I) coeff(I^c),
    reading coeff(I^c) only where coeff(I) is nonzero."""
    full = range(1, n + 1)
    total = 0
    for I in combinations(full, n // 2):
        c1 = coeff(I)
        if not c1:
            continue
        Ic = tuple(i for i in full if i not in I)
        total += _shuffle_sign(I) * c1 * coeff(Ic)
    return total


def federer_product(form):
    """Exact shuffle-sum value of (form x form) on the diagonal tuple.

    For a grade-k form on R^{2k}: the two-copy wedge evaluated on the 2k
    vectors (f_i + g_i)/sqrt(2) splits into sum over increasing I of
    sign(I, I^c) c_I c_{I^c}, with the 2^{-k} scaling factored out so the
    result stays rational.
    """
    k = form.grade()
    if k is None or form.n != 2 * k:
        raise ValueError("need a middle-degree form (grade n/2)")
    return _shuffle_sum(form.n, form.coefficient) / Fraction(2) ** k


def federer_routes():
    """Both exact routes of the diagonal product for the grade-8 calibration,
    plus the shuffle sum of the Kaehler 2-form of R^4 (1/2 when sane).

    Route one: the wedge square's volume coefficient over 2^8.  Route two:
    the shuffle sum.  Disagreement raises.  Returns (route one, route two,
    sanity value).
    """
    phi = build_phi()
    n = phi.n
    vol_idx = tuple(range(1, n + 1))
    route_a = wedge(phi, phi).coefficient(vol_idx) / Fraction(2) ** 8
    route_b = federer_product(phi)
    if route_a != route_b:
        raise RouteDisagreement(
            f"wedge route {route_a} != shuffle route {route_b}"
        )
    omega_r4 = RealForm(4, {(1, 2): 1, (3, 4): 1})
    return route_a, route_b, federer_product(omega_r4)


def federer_eval(form):
    """Float re-evaluation of ``federer_product(form)``: the float total.

    The same shuffle sum, with each coefficient read by ``evaluate`` on a
    coordinate frame scaled by 1/sqrt(2) instead of exactly, so the scaling
    is already in the total.  It therefore tests ``evaluate``; it is not an
    independent route to 147/128.  The independent float route (the
    two-copy wedge on R^32, evaluated on the diagonal vectors) waits for a
    benchmark update, because the benchmark's tests pin this loop's
    ``evaluate`` calls.
    """
    frame = np.eye(form.n) / math.sqrt(2.0)
    return _shuffle_sum(form.n, lambda I: evaluate(form, frame[:, [i - 1 for i in I]]))


# comass search -------------------------------------------------------------------


def frame_value(form, M):
    """Value of the form on the columns of M (same as evaluate)."""
    return evaluate(form, M)


def _cofactor_batch(slabs):
    """d det(A)/dA for a [T,k,k] batch: det(A) A^{-T}, SVD fallback near
    singularity (adjugate via products of singular values, no division)."""
    T, k, _ = slabs.shape
    if k == 1:
        return np.ones_like(slabs)
    dets = np.linalg.det(slabs)
    scale = np.abs(slabs).max(axis=(1, 2)) + 1e-300
    good = np.abs(dets) > 1e-8 * scale**k
    out = np.empty_like(slabs)
    if good.any():
        inv_t = np.swapaxes(np.linalg.inv(slabs[good]), 1, 2)
        out[good] = dets[good][:, None, None] * inv_t
    bad = ~good
    if bad.any():
        U, s, Vt = np.linalg.svd(slabs[bad])
        pref = np.cumprod(
            np.concatenate([np.ones((s.shape[0], 1)), s[:, :-1]], axis=1), axis=1
        )
        suf = np.cumprod(
            np.concatenate([np.ones((s.shape[0], 1)), s[:, :0:-1]], axis=1), axis=1
        )[:, ::-1]
        orient = np.linalg.det(U @ Vt)
        out[bad] = orient[:, None, None] * (U * (pref * suf)[:, None, :]) @ Vt
    return out


def _gradient(rows, coeffs, M):
    slabs = M[rows, :]
    cof = _cofactor_batch(slabs)
    G = np.zeros_like(M)
    np.add.at(G, rows, coeffs[:, None, None] * cof)
    return G


def frame_gradient(form, M):
    """Euclidean gradient of M -> form(columns of M): per-entry cofactor sums,
    over the form's float view, which is built once per form."""
    rows, coeffs = _term_arrays(form)
    return _gradient(rows, coeffs, M)


def _retract(X):
    Q, R = np.linalg.qr(X)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d


def _blade_start(form, n, k):
    best = max(form.terms().items(), key=lambda kv: (abs(kv[1]), tuple(-i for i in kv[0])))
    indices, coeff = best
    M = np.zeros((n, k))
    for col, i in enumerate(indices):
        M[i - 1, col] = 1.0
    if coeff < 0:
        if k >= 2:
            M[:, [0, 1]] = M[:, [1, 0]]
        else:
            M[:, 0] *= -1.0
    return M


def _ascend(rows, coeffs, M, iters, tol):
    f = _det_sum(rows, coeffs, M)
    best_f, best_M = f, M
    step = 1.0
    for _ in range(iters):
        G = _gradient(rows, coeffs, M)
        A = M.T @ G
        Gt = G - M @ ((A + A.T) / 2)
        gn2 = float((Gt * Gt).sum())
        if math.sqrt(gn2) < tol:
            break
        accepted = False
        while step > 1e-14:
            M2 = _retract(M + step * Gt)
            f2 = _det_sum(rows, coeffs, M2)
            if f2 >= f + 1e-4 * step * gn2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        M, f = M2, f2
        if f > best_f:
            best_f, best_M = f, M
        step = min(step * 2.0, 4.0)
    return best_f, best_M


@dataclass(frozen=True)
class ComassReport:
    form_name: str | None
    best_value: float
    best_restart: int
    best_frame: np.ndarray
    restarts: int
    iters: int
    tol: float
    seed: int
    plane_tol: float
    max_abs_coeff: float
    wirt_ratio: float | None

    def to_dict(self):
        d = asdict(self)
        d["best_frame"] = self.best_frame.tolist()
        if self.wirt_ratio is None:
            del d["wirt_ratio"]
        return d


def comass_search(form, restarts=200, iters=500, tol=SEARCH_TOL, seed=0, name=None):
    """Projected-gradient ascent over orthonormal k-frames, multi-restart.

    Restart 0 starts at the largest-coefficient blade frame, so the best
    value is structurally >= the largest absolute coefficient; restart r > 0
    draws a Gaussian frame from a generator seeded with (seed, r).  Ties keep
    the lowest restart index.  For middle-degree forms the report carries the
    ratio of the wedge-square volume coefficient to the squared best value.
    """
    k = form.grade()
    if k is None:
        raise ValueError("comass search needs a homogeneous nonzero form")
    if k == 0:
        raise ValueError("comass search needs grade >= 1")
    if restarts < 1:
        raise ValueError("comass search needs at least one restart")
    if not tol >= 0:
        raise ValueError("comass search needs a tolerance >= 0")
    n = form.n
    rows, coeffs = _term_arrays(form)

    best_f, best_M, best_r = -math.inf, None, -1
    for r in range(restarts):
        if r == 0:
            M0 = _blade_start(form, n, k)
        else:
            rng = np.random.default_rng([seed, r])
            M0 = _retract(rng.standard_normal((n, k)))
        f, M = _ascend(rows, coeffs, M0, iters, tol)
        if f > best_f:
            best_f, best_M, best_r = f, M, r
    max_coeff = max(abs(float(c)) for c in form.terms().values())
    wirt = None
    if n == 2 * k:
        sq = wedge(form, form).coefficient(tuple(range(1, n + 1)))
        wirt = abs(float(sq)) / best_f**2 if best_f else None
    return ComassReport(
        form_name=name,
        best_value=float(best_f),
        best_restart=best_r,
        best_frame=best_M,
        restarts=restarts,
        iters=iters,
        tol=tol,
        seed=seed,
        plane_tol=PLANE_TOL,
        max_abs_coeff=max_coeff,
        wirt_ratio=wirt,
    )
