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
``gen_calibrated`` writes one sample's draws as a tuple in stream order and
reads the random stream once, sample by sample: each sample takes its
``_gaussian`` draws (one 8x8, or two 4x4 and, for family 4, one 8x8), then
family 3's or 4's angles; the QR, phase and determinant fixes, ``eigh`` and
the frame recipe then run once per stack.  ``sample_unitary`` and
``realize`` are the one-sample case of that code.

The module also carries the Federer diagonal product of a middle-degree
form (two exact routes that must agree), the 4x4 minor identities of the
split frame rows, and a projected-gradient ascent over the Stiefel manifold
for comass lower bounds, run on the form's float view ``forms.DetKernel`` or
on the calibration's spinor kernel ``clifford.CliffordKernel``; both
kernels take stacks of frames.  The restarts of a search climb together, a
pool of ``_POOL_WIDTH`` (8) at a time, in one loop of rounds with one
batched kernel value and at most one batched gradient per round; the width
is sized by memory, since each live restart holds its kernel state for the
round.  Every stacked computation works frame by frame, so each sample and
each restart record is bit for bit what it would be alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations, islice

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
from calibench.forms import DetKernel, evaluate, hodge_star, inner_product, mask_indices, wedge

__all__ = [
    "NormalFormSpec",
    "PlaneSample",
    "ComassReport",
    "RestartRecord",
    "MinorCheckReport",
    "realify",
    "realize",
    "kaehler_angles",
    "sample_unitary",
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
    """C^m -> R^{2m} with interleaved real and imaginary parts, on a vector or
    on each column of an (..., m, c) array."""
    z = np.asarray(z, dtype=complex)
    cols = z if z.ndim > 1 else z[:, None]
    out = np.empty(cols.shape[:-2] + (2 * cols.shape[-2], cols.shape[-1]))
    out[..., 0::2, :] = cols.real
    out[..., 1::2, :] = cols.imag
    return out if z.ndim > 1 else out[:, 0]


def _plane(U, angles):
    """16x8 frame of the normal-form recipe on the unitary basis U, or a stack
    of frames for a stack of bases with one row of four angles each.  The
    cosines and sines are taken one angle at a time by ``math``."""
    th = np.asarray(angles, dtype=float)
    cos = np.array([math.cos(t) for t in th.ravel()]).reshape(th.shape)[..., None, :]
    sin = np.array([math.sin(t) for t in th.ravel()]).reshape(th.shape)[..., None, :]
    cols = np.empty(U.shape, dtype=complex)
    cols[..., 0::2] = U[..., 0::2]
    cols[..., 1::2] = 1j * U[..., 0::2] * cos + U[..., 1::2] * sin
    return realify(cols)


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


def _gaussian(rng, n):
    """An n x n complex Gaussian matrix: the real parts, then the imaginary
    parts, read from `rng`."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def _unitary(Z, kind):
    """Unitary matrices from a stack of ``_gaussian`` draws Z: the QR factor
    Q with the phases of R's diagonal moved into it; for "su" the first
    column also takes the conjugate phase of det(Q).  A singular draw (some
    |R_ii| <= 1e-12, probability ~1e-24 per draw) raises AssertionError
    naming its sample, as do membership residuals above 1e-10."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    singular = ~(np.abs(d).min(axis=-1) > 1e-12)
    if singular.any():
        raise AssertionError(f"singular Gaussian draw at sample {int(np.argmax(singular))}")
    Q = Q * (d / np.abs(d))[:, None, :]
    if kind == "su":
        # one scalar division per matrix: an array division rounds differently
        for q, det in zip(Q, np.linalg.det(Q)):
            q[:, 0] *= det.conjugate() / abs(det)
        if (np.abs(np.linalg.det(Q) - 1) > _UNITARY_RESIDUAL).any():
            raise AssertionError("determinant correction failed")
    if (np.linalg.norm(Q.conj().swapaxes(-1, -2) @ Q - np.eye(Q.shape[-1]), axis=(-2, -1)) > _UNITARY_RESIDUAL).any():
        raise AssertionError("unitary residual too large")
    return Q


def _symplectic(B):
    """Compact symplectic 8x8 matrices exp(A) from a stack of ``_gaussian``
    draws B, with A the projection of B onto sp(4) (skew-Hermitian and
    commuting with the quaternionic structure).  Residuals are asserted below
    1e-10."""
    A = (B - B.conj().swapaxes(-1, -2)) / 2
    A = (A + _SP_J @ A.conj() @ np.linalg.inv(_SP_J)) / 2
    # exp(A) for skew-Hermitian A, from the Hermitian eigensystem of iA
    w, V = np.linalg.eigh(1j * A)
    S = (V * np.exp(-1j * w)[:, None, :]) @ V.conj().swapaxes(-1, -2)
    if (np.linalg.norm(S.swapaxes(-1, -2) @ _SP_J @ S - _SP_J, axis=(-2, -1)) > _UNITARY_RESIDUAL).any():
        raise AssertionError("symplectic residual too large")
    if (np.linalg.norm(S.conj().swapaxes(-1, -2) @ S - np.eye(8), axis=(-2, -1)) > _UNITARY_RESIDUAL).any():
        raise AssertionError("unitary residual too large")
    if (np.abs(np.linalg.det(S) - 1) > _UNITARY_RESIDUAL).any():
        raise AssertionError("symplectic sample must have determinant one")
    return S


def sample_unitary(rng):
    """One 8x8 unitary matrix from one ``_gaussian`` draw of the numpy
    Generator `rng`, through ``_unitary`` as a stack of one."""
    return _unitary(_gaussian(rng, 8)[None], "u")[0]


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

    Each sample's draws are one tuple, read in stream order from the
    generator seeded with (seed, case); the stream is read once, sample by
    sample, and each group's stack then goes through ``_unitary`` or
    ``_symplectic`` once.  A singular Gaussian draw raises AssertionError.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1, 2, 3 or 4")
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return []
    rng = np.random.default_rng([seed, case])
    if case in (1, 2):
        U = _unitary(np.array([_gaussian(rng, 8) for _ in range(count)]), "su" if case == 1 else "u")
        specs = [NormalFormSpec(u, (math.pi / 2 if case == 1 else 0.0,) * 4) for u in U]
        frames = _plane(U, [s.angles for s in specs])
        return [PlaneSample(case, frame, spec) for frame, spec in zip(frames, specs)]
    half = math.pi / 2
    if case == 3:
        draws = [(_gaussian(rng, 4), _gaussian(rng, 4), rng.uniform(0, half), rng.uniform(0, half))
                 for _ in range(count)]
    else:
        draws = [(_gaussian(rng, 4), _gaussian(rng, 4), _gaussian(rng, 8), rng.uniform(0.05, half - 0.05))
                 for _ in range(count)]
    Z1, Z2, X, Y = (np.array(x) for x in zip(*draws))
    U1, U2 = _unitary(Z1, "su"), _unitary(Z2, "su")
    D = np.zeros((count, 8, 8), dtype=complex)
    D[:, :4, :4] = U1
    D[:, 4:, 4:] = U2
    if case == 3:
        angles = [(float(t1), float(t1), float(t2), float(t2)) for t1, t2 in zip(X, Y)]
        return [PlaneSample(3, frame, None, {
                    "angles": [a[0], a[2]],
                    "basis_left_re": u1.real.tolist(),
                    "basis_left_im": u1.imag.tolist(),
                    "basis_right_re": u2.real.tolist(),
                    "basis_right_im": u2.imag.tolist(),
                }) for frame, a, u1, u2 in zip(_plane(D, angles), angles, U1, U2)]
    DS = D @ _symplectic(X)
    specs = [NormalFormSpec(m, (float(th),) * 4) for m, th in zip(DS, Y)]
    return [PlaneSample(4, frame, spec, {"theta": spec.angles[0]})
            for frame, spec in zip(_plane(DS, [s.angles for s in specs]), specs)]


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


def _shuffle_sum(n, coeff, blades):
    """sum over the increasing index tuples I in ``blades`` (each of length
    n/2) of sign(I, I^c) coeff(I) coeff(I^c), reading coeff(I^c) only where
    coeff(I) is nonzero.  Walking every such I gives the full shuffle sum;
    walking a superset of the I with coeff(I) != 0 gives the same value."""
    full = range(1, n + 1)
    total = 0
    for I in blades:
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
    coefficient, route two takes it term by term, walking only the form's
    support (c_I = 0 off it; on Phi, 294 of the 12,870 index sets) with its
    own shuffle sign.  RouteDisagreement unless both give the same rational
    value."""
    k = _middle_degree(form)
    route_a = wedge(form, form).coefficient(tuple(range(1, form.n + 1))) / Fraction(2) ** k
    route_b = _shuffle_sum(form.n, form.coefficient, map(mask_indices, form._terms)) / Fraction(2) ** k
    if route_a != route_b:
        raise RouteDisagreement(f"wedge route {route_a} != shuffle route {route_b}")
    return route_a


def federer_eval(form):
    """Float re-evaluation of ``federer_product(form)``: the float total.

    The same shuffle sum over every index set I of size k, with each
    coefficient read by ``evaluate`` on a coordinate frame scaled by
    1/sqrt(2) instead of exactly, so the scaling is already in the total.
    It therefore tests ``evaluate``; it is not an independent route to
    147/128.  The independent float route (the two-copy wedge on R^32,
    evaluated on the diagonal vectors) waits for a benchmark update, because
    the benchmark's tests pin this loop's ``evaluate`` calls.

    Each frame is one ``take`` of the 1-based columns I from the scaled
    identity behind a zero column, so it has exactly k live rows and
    ``evaluate`` reads the one term they select by its row mask.  On Phi:
    13,164 ``evaluate`` calls in 0.093-0.097 s (about 7.2 us per call), the
    fastest of 7 warm runs in each of three processes on one pinned CPU of a
    shared 2-core Xeon.
    """
    k = _middle_degree(form)
    padded = np.eye(form.n, form.n + 1, 1) / math.sqrt(2.0)
    blades = combinations(range(1, form.n + 1), k)
    return float(_shuffle_sum(form.n, lambda I: evaluate(form, padded.take(I, axis=1)), blades))


# comass search -------------------------------------------------------------------


def frame_value(form, M):
    """Value of the form on the columns of M: ``evaluate`` under another
    name.  No check calls it; it stays because the benchmark times and
    traces it, until the benchmark moves to ``evaluate``."""
    return evaluate(form, M)


def frame_gradient(form, M):
    """Euclidean gradient of M -> form(columns of M), with ``evaluate``'s
    input checks: the form's ``DetKernel`` cofactor sums (zero form: zeros)."""
    kernel, M = DetKernel.for_frame(form, M)
    if kernel is None:
        return np.zeros(M.shape)
    return kernel.gradient(kernel.value(M[None])[1])[0]


def _retract(X):
    """The orthonormal frame of X, or of each frame of a stack: the QR factor
    Q with the signs that make R's diagonal nonnegative."""
    Q, R = np.linalg.qr(X)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return Q * d[..., None, :]


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
    """The projection G - M sym(M^T G) onto the tangent space at M, per frame
    of a stack."""
    A = M.swapaxes(-1, -2) @ G
    return G - M @ ((A + A.swapaxes(-1, -2)) / 2)


_STEP_RANGE = (1e-6, 1e6)
_STEP_FLOOR = 1e-14


# Width of the pool of restarts that climb as one stack, sized by memory.  On
# the calibration's Clifford kernel a live restart holds 16 KiB of partial
# products, and a gradient passes about four such arrays per restart through
# numpy, so the tracemalloc peak of comass_search(Phi, 20, 300) grows by
# ~0.09 MiB per slot: 0.32 MiB at 4, 0.68 at 8, 1.05 at 12, 1.79 at 20,
# against the 1.25 MiB that tests/test_grassmann.py allows.  Time stops
# falling at about 8: comass_phi plus comass_never_exceed took 0.30 s at
# width 1, 0.20 s at 4 and 0.12-0.14 s at 8, 12 and 20 (minimum of 7 warm
# runs on one pinned CPU of a shared 2-core Xeon).
_POOL_WIDTH = 8


def _ascend(kernel, starts, iters, tol):
    """Projected-gradient ascent from each orthonormal frame of `starts`,
    with Barzilai-Borwein steps and a QR retraction.

    Each step moves along the projected gradient Gt = G - M sym(M^T G).  Its
    length is the BB2 step (s.y)/(y.y), with s = M_t - M_{t-1} and
    y = Gt_{t-1} - Gt_t, clamped to _STEP_RANGE, or 1 on the first step and
    whenever s.y <= 0; it is halved until the monotone Armijo condition
    f(M') >= f(M) + 1e-4 step |Gt|^2 holds.  A step costs one kernel value
    per trial and one gradient at the trial it keeps (each kernel's
    docstring gives those costs).

    The starts climb as one stack, a pool of up to _POOL_WIDTH live
    restarts, in one loop of rounds.  Every live restart has exactly one
    trial frame pending, and a start is a trial that is always kept.  A
    round takes one batched value of all the trials, keeps or rejects each
    by its Armijo test, takes one batched gradient at the kept trials, and
    retracts the next trial of every row: a fresh step from a kept trial, a
    halved one after a rejected trial.  A kernel's state lives only in its
    round.  A restart that stops leaves the pool and the next start, in
    order, takes its place.  The kernels and every reduction work frame by
    frame, so a restart's numbers do not depend on the others in its stack.

    Returns one (value, frame, steps taken, stop reason) per start, in
    order: "tol" when |Gt| < tol, "line_search" when the step falls below
    _STEP_FLOOR without an accepted trial, "cap" after `iters` steps.  The
    value never decreases, so the final frame is the best one visited.
    """
    pending = enumerate(starts)
    out = {}
    # the pool: one row per live restart, its trial T and its frame M, value
    # f, projected gradient Gt with gn2 = |Gt|^2, and step.  A new row enters
    # with T = M = its start, Gt = 0 and steps = -1: keeping the start counts
    # as step 0, and its s = T - M = 0 gives it the unit first step
    ids, steps = np.zeros((2, 0), dtype=int)
    f, gn2, step = np.zeros((3, 0))
    T = M = Gt = None

    while True:
        new = list(islice(pending, _POOL_WIDTH - len(ids)))
        if new:
            T0 = np.stack([m for _, m in new])
            if T is None:
                T = M = Gt = T0[:0]
            zero = np.zeros(len(new))
            ids, steps, f, gn2, step, T, M, Gt = (np.concatenate(x) for x in zip(
                (ids, steps, f, gn2, step, T, M, Gt),
                ([r for r, _ in new], np.full(len(new), -1), zero, zero, zero, T0, T0, np.zeros_like(T0))))
        if not len(ids):
            return [out[r] for r in range(len(out))]
        fT, state = kernel.value(T)
        kept = (steps < 0) | (fT >= f + 1e-4 * step * gn2)
        steps += kept
        step[~kept] *= 0.5
        grad = kept & (steps < iters)
        live = np.where(kept, grad, step >= _STEP_FLOOR)
        g = slice(None) if grad.all() else grad  # a slice takes views, not copies
        s = T[g] - M[g]
        M[kept], f[kept] = T[kept], fT[kept]
        if grad.any():
            Gn = _project(M[g], kernel.gradient(tuple(x[g] for x in state)))
            y = Gt[g] - Gn
            sy = (s * y).sum(axis=(1, 2))
            Gt[g], gn2[g] = Gn, (Gn * Gn).sum(axis=(1, 2))
            live[g] = ~(np.sqrt(gn2[g]) < tol)
            bb = sy > 0
            y = y[bb]
            bb_step = np.ones(len(sy))
            bb_step[bb] = np.minimum(np.maximum(sy[bb] / (y * y).sum(axis=(1, 2)), _STEP_RANGE[0]), _STEP_RANGE[1])
            step[g] = bb_step
        del state  # no kernel state outlives its round
        if not live.all():
            for i in np.flatnonzero(~live):
                stop = "tol" if grad[i] else "cap" if kept[i] else "line_search"
                out[int(ids[i])] = (float(f[i]), M[i].copy(), int(steps[i]), stop)
            ids, steps, f, gn2, step, M, Gt = (x[live] for x in (ids, steps, f, gn2, step, M, Gt))
        T = _retract(M + step[:, None, None] * Gt)


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


def comass_search(form, restarts, iters, tol=SEARCH_TOL, seed=0, name=None):
    """Projected-gradient ascent over orthonormal k-frames, multi-restart.

    Restart r starts from a Gaussian frame drawn from a generator seeded
    with (seed, r); no restart starts on a coordinate blade, so the best
    value is one an ascent reached.  The restarts climb by ``_ascend``:
    Barzilai-Borwein steps with monotone Armijo backtracking and a QR
    retraction, for at most `iters` steps, stopping early when the projected
    gradient's norm drops below `tol` or the line search finds no ascent.
    They climb as a stack, up to _POOL_WIDTH (8) at once and refilled in
    restart order, which bounds the memory the kernel states take; each
    round takes one batched value of every restart's pending trial and one
    batched gradient at the kept trials, and each restart's record is what
    it would be climbing alone.

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
    to the squared best value; that coefficient is read as <form, *form>,
    which equals (form ^ form)_vol for every k-form on R^{2k} (both are 0
    for odd k).
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

    starts = (_retract(np.random.default_rng([seed, r]).standard_normal((n, k))) for r in range(restarts))
    best_f, best_M, best_r = -math.inf, None, -1
    records = []
    for r, (f, M, steps, stop) in enumerate(_ascend(kernel, starts, iters, tol)):
        records.append(RestartRecord(value=f, iterations=steps, stop=stop))
        if f > best_f:
            best_f, best_M, best_r = f, M, r
    max_coeff = max(abs(float(c)) for c in form.terms().values())
    wirt = None
    if n == 2 * k:
        sq = inner_product(form, hodge_star(form))
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
