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

The module also carries the Federer diagonal product of a middle-degree
form (two exact routes that must agree), the 4x4 minor identities of the
split frame rows, and a projected-gradient ascent over the Stiefel manifold
for comass lower bounds, run on the form's float view ``forms.DetKernel`` or
on the calibration's spinor kernel ``clifford.CliffordKernel``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from calibench import clifford
from calibench.catalog import (
    STANDARD16,
    RouteDisagreement,
    holomorphic_volume,
    kaehler_form,
    spinor_pullback_matrix,
    spinor_pullback_phi,
)
from calibench.forms import DetKernel, evaluate, wedge

__all__ = [
    "NormalFormSpec",
    "PlaneSample",
    "ComassReport",
    "RestartRecord",
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


def kaehler_angles(frame):
    """Kaehler angles in [0, pi/2], ascending, of an orthonormal 16x8 frame.
    An angle in (pi/2, pi] folds back to pi minus itself."""
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
    return np.sort(np.arccos(cosines))


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
            d["meta"] = dict(self.meta)
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


def _middle_degree(form):
    """The grade k of a form on R^{2k}; raises for any other form."""
    k = form.grade()
    if k is None or form.n != 2 * k:
        raise ValueError("need a middle-degree form (grade n/2)")
    return k


def federer_product(form):
    """Exact value of (form x form) on the diagonal tuple, by two routes.

    For a grade-k form on R^{2k}, the two-copy wedge on the 2k vectors
    (f_i + g_i)/sqrt(2) is 2^{-k} sum over increasing I of sign(I, I^c)
    c_I c_{I^c}: route one reads that sum off form ^ form's volume
    coefficient, route two takes it term by term.  RouteDisagreement unless
    both give the same rational value."""
    k = _middle_degree(form)
    route_a = wedge(form, form).coefficient(tuple(range(1, form.n + 1))) / Fraction(2) ** k
    route_b = _shuffle_sum(form.n, form.coefficient) / Fraction(2) ** k
    if route_a != route_b:
        raise RouteDisagreement(f"wedge route {route_a} != shuffle route {route_b}")
    return route_a


def federer_eval(form):
    """Float re-evaluation of ``federer_product(form)``: the float total.

    The same shuffle sum, with each coefficient read by ``evaluate`` on a
    coordinate frame scaled by 1/sqrt(2) instead of exactly, so the scaling
    is already in the total.  It therefore tests ``evaluate``; it is not an
    independent route to 147/128.  The independent float route (the
    two-copy wedge on R^32, evaluated on the diagonal vectors) waits for a
    benchmark update, because the benchmark's tests pin this loop's
    ``evaluate`` calls.

    Cost on Phi: 13,164 ``evaluate`` calls.  Each coordinate frame has
    exactly k live rows, so ``evaluate`` reads the one term they can select
    by its row mask and takes at most one det; the loop takes 0.18-0.23 s
    (14-17 us per call) on one pinned CPU of a shared 2-core Xeon.
    """
    _middle_degree(form)
    frame = np.eye(form.n) / math.sqrt(2.0)
    return float(_shuffle_sum(form.n, lambda I: evaluate(form, frame[:, [i - 1 for i in I]])))


# comass search -------------------------------------------------------------------


def frame_value(form, M):
    """Value of the form on the columns of M (same as evaluate)."""
    return evaluate(form, M)


def frame_gradient(form, M):
    """Euclidean gradient of M -> form(columns of M), with ``evaluate``'s
    input checks: the form's ``DetKernel`` cofactor sums (zero form: zeros)."""
    kernel, M = DetKernel.for_frame(form, M)
    if kernel is None:
        return np.zeros(M.shape)
    return kernel.gradient(kernel.value(M)[1])


def _retract(X):
    Q, R = np.linalg.qr(X)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d


@functools.cache
def _clifford_kernel():
    return clifford.CliffordKernel(spinor_pullback_matrix())


def _search_kernel(form):
    """The Clifford kernel when the form is term for term the pulled-back
    spinor grade-8 part, the form's ``DetKernel`` for every other form."""
    if form.n == 16 and form.grade() == 8 and len(form) == 294 and form == spinor_pullback_phi():
        return _clifford_kernel()
    return DetKernel.of(form)


def _project(M, G):
    """The projection G - M sym(M^T G) onto the tangent space at M."""
    A = M.T @ G
    return G - M @ ((A + A.T) / 2)


_STEP_RANGE = (1e-6, 1e6)
_STEP_FLOOR = 1e-14


def _ascend(kernel, M, iters, tol):
    """Projected-gradient ascent from the orthonormal frame M with
    Barzilai-Borwein steps and a QR retraction.

    Each step moves along the projected gradient Gt = G - M sym(M^T G).  Its
    length is the BB2 step (s.y)/(y.y), with s = M_t - M_{t-1} and
    y = Gt_{t-1} - Gt_t, clamped to _STEP_RANGE, or 1 on the first step and
    whenever s.y <= 0; it is halved until the monotone Armijo condition
    f(M') >= f(M) + 1e-4 step |Gt|^2 holds.  `kernel` gives each trial's
    value with a state, and the accepted trial's state feeds the next
    gradient, so a step costs one gradient plus one value per trial (each
    kernel's docstring gives those costs).

    Returns (value, frame, steps taken, stop reason): "tol" when |Gt| < tol,
    "line_search" when the step falls below _STEP_FLOOR without an accepted
    trial, "cap" after `iters` steps.  The value never decreases, so the
    final frame is the best one visited.
    """
    f, state = kernel.value(M)
    M_prev = Gt_prev = None
    for t in range(iters):
        Gt = _project(M, kernel.gradient(state))
        gn2 = float((Gt * Gt).sum())
        if math.sqrt(gn2) < tol:
            return f, M, t, "tol"
        step = 1.0
        if Gt_prev is not None:
            s, y = M - M_prev, Gt_prev - Gt
            sy = float((s * y).sum())
            if sy > 0:
                step = min(max(sy / float((y * y).sum()), _STEP_RANGE[0]), _STEP_RANGE[1])
        while True:
            M2 = _retract(M + step * Gt)
            f2, state2 = kernel.value(M2)
            if f2 >= f + 1e-4 * step * gn2:
                break
            step *= 0.5
            if step < _STEP_FLOOR:
                return f, M, t, "line_search"
        M_prev, Gt_prev = M, Gt
        M, f, state = M2, f2, state2
    return f, M, iters, "cap"


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of the search ended: its final value, the ascent
    steps it took and why it stopped ("tol", "line_search" or "cap")."""

    value: float
    iterations: int
    stop: str


@dataclass(frozen=True)
class ComassReport:
    form_name: str | None
    best_value: float
    best_restart: int
    best_frame: np.ndarray
    restart_records: tuple
    kernel: str
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

    Restart r starts from a Gaussian frame drawn from a generator seeded
    with (seed, r); no restart starts on a coordinate blade, so the best
    value is one an ascent reached.  Each restart runs ``_ascend``:
    Barzilai-Borwein steps with monotone Armijo backtracking and a QR
    retraction, for at most `iters` steps, stopping early when the projected
    gradient's norm drops below `tol` or the line search finds no ascent.

    The kernel is chosen from the form alone.  A form equal term for term to
    ``catalog.spinor_pullback_phi()``, the grade-8 calibration, runs on
    ``clifford.CliffordKernel`` built from ``spinor_pullback_matrix()`` (a
    product of sixteen 16x16 spinor matrices per value); every other form
    runs on its ``forms.DetKernel`` (one batched det of its term slabs per
    value, one batched inverse per gradient).  The two kernels' Euclidean
    gradients differ by M S with S symmetric, which the projection removes,
    so only projected gradients agree.

    The report carries the kernel's name, the best value, frame and restart
    (ties keep the lowest index), one ``RestartRecord`` per restart, and the
    largest absolute coefficient, which is the value of the form on its best
    coordinate blade and so a lower bound of the comass.  For middle-degree
    forms it also carries the ratio of the wedge-square volume coefficient
    to the squared best value.
    """
    k = form.grade()
    if k is None:
        raise ValueError("comass search needs a homogeneous nonzero form")
    if k == 0:
        raise ValueError("comass search needs grade >= 1")
    if restarts < 1:
        raise ValueError("comass search needs at least one restart")
    if iters < 0:
        raise ValueError("comass search needs iters >= 0")
    if not tol >= 0:
        raise ValueError("comass search needs a tolerance >= 0")
    n = form.n
    kernel = _search_kernel(form)

    best_f, best_M, best_r = -math.inf, None, -1
    records = []
    for r in range(restarts):
        M0 = _retract(np.random.default_rng([seed, r]).standard_normal((n, k)))
        f, M, steps, stop = _ascend(kernel, M0, iters, tol)
        records.append(RestartRecord(value=f, iterations=steps, stop=stop))
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
        restart_records=tuple(records),
        kernel=kernel.name,
        restarts=restarts,
        iters=iters,
        tol=tol,
        seed=seed,
        plane_tol=PLANE_TOL,
        max_abs_coeff=max_coeff,
        wirt_ratio=wirt,
    )
