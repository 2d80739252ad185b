"""Clifford representation on a 256-dimensional doubled pinor space.

One factor: P8 = O+ (+) O-, sixteen real dimensions, where a vector v acts by

    [[0, R_v], [-R_vbar, 0]]

and R_v is right multiplication by v on the octonions.  The volume element
of the eight generators acts as diag(id, -id).

Doubled: P16 = P8 (x) P8 with generator i (1..8) acting as e_i (x) volume and
generator 8+i as id (x) e_i.  Basis order of P16 is by blocks ++, +-, -+, --,
each block running over (a, b) row-major; index(s, t, a, b) = 128s + 64t +
8a + b with a, b in 0..7.

Every generator is a signed XOR permutation e_c -> t (-1)^(b.c) e_(c xor a),
with b.c the parity of the bits b and c share, so blade m is three numbers
(X[m], Z[m], SIG[m]).  A doubling recurrence builds them for all 2^16 blades
once, and the exact trace projection ``endo_to_form`` reads every blade's
coefficient off 256-point integer Walsh-Hadamard transforms, one for each
XOR column x = r xor c that holds a nonzero entry (r, c): a blade matrix
or a spinor outer product occupies one.

The float lane lays a spinor out as a 16x16 matrix, where each generator is
two 16x16 products; ``CliffordKernel``, the comass search's kernel for the
calibration, works in that layout.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from calibench.forms import RealForm
from calibench.octonion import MULT_TABLE

__all__ = [
    "rep8_matrix",
    "rep16",
    "endo_to_form",
    "pinor_index",
    "S_PLUS",
    "S_PRIME",
    "POSITIVE_SPINOR_INDICES",
    "spinor_vector",
    "CliffordKernel",
    "GENERATORS",
]

DIM = 256


def pinor_index(s, t, a, b):
    """Index of e_a^(s) (x) e_b^(t); s,t are 0 for +, 1 for -; a,b in 0..7."""
    return 128 * s + 64 * t + 8 * a + b


# the two unit spinors driving the calibration family: 1+ (x) 1+ and i+ (x) i+
S_PLUS = pinor_index(0, 0, 0, 0)
S_PRIME = pinor_index(0, 0, 1, 1)

# positive half-spinor space: blocks ++ and --
POSITIVE_SPINOR_INDICES = tuple(range(0, 64)) + tuple(range(192, 256))


def spinor_vector(index):
    v = np.zeros(DIM, dtype=np.int64)
    v[index] = 1
    return v


def _rep8_perm(i):
    """Signed permutation of the 16 P8 basis vectors under the action of e_i.

    With w e_i = sg e_c read off the octonion table for all eight w at once:
    on O+ the image of w is -(w conj(e_i)) in O-; on O- it is (w e_i) in O+.
    """
    sg, c = np.array([MULT_TABLE[a][i] for a in range(8)], dtype=np.int64).T
    conj_sign = 1 if i == 0 else -1
    return np.concatenate((8 + c, c)), np.concatenate((-conj_sign * sg, sg))


# The 16x16 layout of a P16 spinor puts x[pinor_index(s, t, a, b)] at row
# 8s + a and column 8t + b, so the first factor acts on the left and the
# second on the right: generator i < 8 maps X to R_i X V and generator 8 + i
# maps X to X R_i^T, with R_i the P8 matrix of e_i and V = diag(+1 x8, -1 x8)
# the second factor's volume element.  This is not pinor_index's order.
_VOL8 = np.repeat([1.0, -1.0], 8)


def _spinor_matrix(x):
    """The 16x16 layout of a length-256 spinor in pinor_index order."""
    return np.asarray(x).reshape(2, 2, 8, 8).transpose(0, 2, 1, 3).reshape(16, 16)


def _rho_apply(L, Rt, X):
    """rho(u) X in the 16x16 layout, from the factors of u."""
    return L @ X * _VOL8 + X @ Rt


class CliffordKernel:
    """Search kernel of the spinor grade-8 part pulled back by a diagonal
    sign matrix D, for the ascent in ``grassmann``.

    On an orthonormal frame with columns u_1..u_8 the form takes the value
    <rho(D u_1)...rho(D u_8) s, s + s'>, with s = ``S_PLUS`` and
    s' = ``S_PRIME``: the Clifford product of orthonormal vectors is their
    blade.  ``value`` applies the eight rho's right to left on 16x16 spinor
    matrices and keeps the partial products P_j = rho(D u_{j+1})...rho(D u_8) s
    in its state (M, P).  ``gradient`` rebuilds the rho factors from M, runs
    the backward products Q_j = rho(D u_{j-1})^T...rho(D u_1)^T (s + s'),
    using rho^T = -rho, and pairs rho(e_i) P_j with Q_j for all sixteen
    generators at once.  A value costs two factor products and 16 matrix
    products of 16x16, a gradient the two factor products again (keeping
    only P holds less memory per frame), 14 more 16x16 products and two
    batched ones.

    ``M`` is a stack (B, 16, k) of frames, with B values and a (B, 16, k)
    gradient; a single frame is a stack of one.  Every product runs per
    frame with the frame's own shapes, so each frame's numbers are bit for
    bit those of the frame in a stack of one.

    This is the Euclidean gradient of the multilinear extension, which
    differs from the per-term cofactor gradient by M S with S symmetric; the
    projected gradients the ascent reads agree.
    """

    name = "clifford"

    def __init__(self, D):
        self.D = np.asarray(D, dtype=float)
        self.s = _spinor_matrix(spinor_vector(S_PLUS)).astype(float)
        self.w = self.s + _spinor_matrix(spinor_vector(S_PRIME))
        # row i is the P8 matrix R_i of generator i, row-major
        self.R = np.array([rep8_matrix(e) for e in np.eye(8, dtype=int)], dtype=float).reshape(8, 256)

    def _factors(self, M):
        """For the columns u_j of D M, a float (..., 16, k) array: L[..., j] =
        R(u_j[:8]) and Rt[..., j] = R(u_j[8:])^T, so that rho(u_j) X =
        L[..., j] X V + X Rt[..., j]."""
        U = self.D @ M
        shape = U.shape[:-2] + (U.shape[-1], 16, 16)
        top = (U[..., :8, :].swapaxes(-1, -2) @ self.R).reshape(shape)
        return top, (U[..., 8:, :].swapaxes(-1, -2) @ self.R).reshape(shape).swapaxes(-1, -2)

    def _pairings(self, P, Q):
        """[..., k, 16] array of <rho(e_i) P[j], Q[j]> for [..., k, 16, 16]
        stacks P and Q.

        <R_i X V, Y> is the sum of R_i against Y V X^T, and <X R_i^T, Y> the
        sum of R_i against Y^T X, so each half is one product with the
        flattened R_i.
        """
        shape = P.shape[:-2] + (256,)
        right = (Q.swapaxes(-1, -2) @ P).reshape(shape) @ self.R.T
        left = ((Q * _VOL8) @ P.swapaxes(-1, -2)).reshape(shape) @ self.R.T
        return np.concatenate((left, right), axis=-1)

    def value(self, M):
        L, Rt = self._factors(M)
        P = np.empty(L.shape)
        X = np.broadcast_to(self.s, L.shape[:-3] + (16, 16))
        for j in reversed(range(L.shape[-3])):
            P[..., j, :, :] = X
            X = _rho_apply(L[..., j, :, :], Rt[..., j, :, :], X)
        return np.array([np.vdot(self.w, x) for x in X]), (M, P)

    def gradient(self, state):
        M, P = state
        L, Rt = self._factors(M)
        Q = np.empty_like(P)
        Q[..., 0, :, :] = self.w
        for j in range(L.shape[-3] - 1):
            Q[..., j + 1, :, :] = -_rho_apply(L[..., j, :, :], Rt[..., j, :, :], Q[..., j, :, :])
        del L, Rt
        return self.D.T @ self._pairings(P, Q).swapaxes(-1, -2)


def rep8_matrix(v):
    """16x16 matrix of the action of v in R^8 (octonion coordinates) on P8.

    Each nonzero coordinate scatters its signed permutation with one indexed
    add.  Exact: object dtype, with Python int and Fraction entries for
    integer and Fraction coordinates.
    """
    M = np.zeros((16, 16), dtype=object)
    for i, c in enumerate(v):
        if c:
            perm, sign = _rep8_perm(i)
            M[perm, np.arange(16)] += c * sign.astype(object)
    return M


def _gen16(i):
    """Signed permutation of P16 under generator i in 0..15 (0-based).

    Built over the whole basis as (s, t, a, b) index arrays in pinor_index
    order.  Generator i < 8 is e_i (x) vol: the first factor's 8s + a goes to
    q = p8[8s + a], sign s8 (-1)^t.  Generator 8 + i is id (x) e_i: the second
    factor's 8t + b goes to q = p8[8t + b], sign s8.
    """
    s, t, a, b = np.indices((2, 2, 8, 8)).reshape(4, DIM)
    p8, s8 = _rep8_perm(i % 8)
    if i < 8:
        q = p8[8 * s + a]
        perm, sign = pinor_index(q // 8, t, q % 8, b), s8[8 * s + a] * (1 - 2 * t)
    else:
        q = p8[8 * t + b]
        perm, sign = pinor_index(s, q // 8, a, q % 8), s8[8 * t + b]
    perm.flags.writeable = sign.flags.writeable = False
    return perm, sign


# generator i + 1 as a read-only signed permutation (perm, sign)
GENERATORS = [_gen16(i) for i in range(16)]


def _blade_perm(indices):
    """Signed permutation of an ordered generator product E_{i1}...E_{ik}.
    Appending generator (pb, sb) maps (perm, sign) to (perm[pb], sign[pb] sb)."""
    perm = np.arange(DIM, dtype=np.int64)
    sign = np.ones(DIM, dtype=np.int64)
    for i in indices:
        if not 1 <= i <= 16:
            raise ValueError(f"generator index out of range: {i}")
        pb, sb = GENERATORS[i - 1]
        perm, sign = perm[pb], sign[pb] * sb
    return perm, sign


def rep16(indices):
    """Dense integer matrix of the blade E_{i1}...E_{ik} (strictly increasing).

    The empty blade is the identity.
    """
    idx = tuple(indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"blade indices must be strictly increasing: {idx}")
    perm, sign = _blade_perm(idx)
    M = np.zeros((DIM, DIM), dtype=np.int64)
    M[perm, np.arange(DIM)] = sign
    return M


def _xor_form(perm, sign):
    """(a, b, t) with perm[c] = c xor a and sign[c] = t (-1)^(b.c) for all c.

    Raises ValueError when the signed permutation has no such form.
    """
    c = np.arange(DIM, dtype=np.uint8)
    a, t = int(perm[0]), int(sign[0])
    b = sum(1 << k for k in range(8) if sign[1 << k] != t)
    if not (np.array_equal(perm, c ^ a)
            and np.array_equal(sign, t * (1 - 2 * (np.bitwise_count(c & b) & 1).astype(np.int64)))):
        raise ValueError("generator is not a signed XOR permutation")
    return a, b, t


@functools.cache
def _blade_tables():
    """(X, Z, SIG): blade mask m acts as e_c -> SIG[m] (-1)^(Z[m].c) e_(c xor X[m]).

    Doubling recurrence: masks with top generator h+1 are the lower masks with
    generator h+1 = (a, b, t) appended on the right, which maps (x, z, s) to
    (x xor a, z xor b, s t (-1)^(z.a)).  Each generator's form is checked.
    """
    X = np.empty(1 << 16, dtype=np.uint8)
    Z = np.empty(1 << 16, dtype=np.uint8)
    SIG = np.empty(1 << 16, dtype=np.int8)
    X[0], Z[0], SIG[0] = 0, 0, 1
    for h, (perm, sign) in enumerate(GENERATORS):
        a, b, t = _xor_form(perm, sign)
        sz = 1 << h
        X[sz:2 * sz] = X[:sz] ^ a
        Z[sz:2 * sz] = Z[:sz] ^ b
        SIG[sz:2 * sz] = SIG[:sz] * t * (1 - 2 * (np.bitwise_count(Z[:sz] & a) & 1).astype(np.int8))
    return X, Z, SIG


@functools.cache
def _projection_tables():
    """(BLADE, SIG): BLADE[256 Z[m] + X[m]] = m names the blade read off
    entry (Z[m], X[m]) of the transformed matrix, as a flat uint16 table,
    since every flat index is below 2^16; (X, Z) takes every value once,
    because the 2^16 blades are linearly independent."""
    X, Z, SIG = _blade_tables()
    blade = np.empty(1 << 16, dtype=np.uint16)
    blade[Z.astype(np.uint16) << 8 | X] = np.arange(1 << 16)
    blade.flags.writeable = False
    return blade, SIG


def _column_gather(cols):
    """Flat indices G[c, j] = 256 (c xor x_j) + c into a 256x256 matrix A,
    for the columns x_j of D[c, x] = A[c xor x, c]."""
    c = np.arange(DIM)[:, None]
    return (c ^ cols) << 8 | c


_BOUND = 1 << 55  # 256 * |entry| stays below 2^63
_BOUND32 = 1 << 23  # below it, 256 * |entry| stays below 2^31


def endo_to_form(A):
    """Project a 256x256 endomorphism onto blade coordinates.

    Returns sum_I tr(rep16(I)^T A) / 256 E_I as an exact form on R^16.  With
    blade m as (X, Z, SIG), tr(E_m^T A) = SIG[m] H[Z[m], X[m]], where H is the
    Walsh-Hadamard transform along c of D[c, x] = A[c xor x, c].  The
    transform acts on each column x of D alone, and a column with no nonzero
    entry transforms to zero, so only the occupied columns x = r xor c of
    A's nonzero entries (r, c) are gathered: one for a blade matrix or a
    spinor outer product, all 256 for a dense matrix.  An 8-stage integer
    butterfly runs in place on them along the leading axis, and only the
    nonzero entries of its output are read, each named by its blade: they
    are the form's int numerators, scaled by 1/256 once.  Takes an integer
    dtype with entries |a| < 2^55, so no sum or intermediate leaves int64;
    raises TypeError on any other dtype, object arrays included, to keep the
    exact lane honest, and ValueError beyond the bound, read off the nonzero
    entries' min and max.  When every |a| < 2^23 the butterfly runs in
    int32, since no sum then leaves int32 either.
    """
    M = np.asarray(A)
    if M.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} matrix, got {M.shape}")
    if not np.issubdtype(M.dtype, np.integer):
        raise TypeError("endo_to_form needs an integer dtype")
    flat = M.ravel()
    nz = np.flatnonzero(flat)
    if not nz.size:
        return RealForm(16)
    vals = flat[nz]
    lo, hi = int(vals.min()), int(vals.max())
    if lo <= -_BOUND or hi >= _BOUND:
        raise ValueError("endo_to_form needs entries with |a| < 2^55")
    blade, SIG = _projection_tables()
    dtype = np.int32 if -_BOUND32 < lo and hi < _BOUND32 else np.int64
    cols = np.flatnonzero(np.bincount((nz >> 8) ^ (nz & 0xFF), minlength=DIM))
    H = flat[_column_gather(cols)].astype(dtype, copy=False)
    J = len(cols)
    for k in range(8):
        # c's bit k is the middle axis; (a, b) -> (a + b, a - b) in place
        V = H.reshape(-1, 2, J << k)
        a, b = V[:, 0], V[:, 1]
        a += b
        b *= -2
        b += a
    pos = np.flatnonzero(H)
    m = blade[(pos // J) << 8 | cols[pos % J]]
    order = np.argsort(m)  # terms in increasing blade mask; each mask occurs once
    pos, m = pos[order], m[order]
    return RealForm(16, dict(zip(m.tolist(), (SIG[m] * H.ravel()[pos]).tolist()))) * Fraction(1, 256)
