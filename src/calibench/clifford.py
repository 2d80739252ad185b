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
coefficient off one 256-point integer Walsh-Hadamard transform.
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

    On O+ the image of w is -(w conj(e_i)) in O-; on O- it is (w e_i) in O+.
    """
    perm = np.zeros(16, dtype=np.int64)
    sign = np.zeros(16, dtype=np.int64)
    conj_sign = 1 if i == 0 else -1
    for a in range(8):
        sg, c = MULT_TABLE[a][i]
        # from O+
        perm[a] = 8 + c
        sign[a] = -conj_sign * sg
        # from O-
        perm[8 + a] = c
        sign[8 + a] = sg
    return perm, sign


def rep8_matrix(v):
    """16x16 matrix of the action of v in R^8 (octonion coordinates) on P8.

    Exact for integer/Fraction coordinates (object dtype), float otherwise.
    """
    coords = list(v)
    exact = not any(isinstance(c, (float, np.floating)) for c in coords)
    M = np.zeros((16, 16), dtype=object if exact else float)
    for i, c in enumerate(coords):
        if not c:
            continue
        perm, sign = _rep8_perm(i)
        for b in range(16):
            M[perm[b], b] += c * int(sign[b])
    return M


def _gen16(i):
    """Signed permutation of P16 under generator i in 0..15 (0-based)."""
    perm = np.zeros(DIM, dtype=np.int64)
    sign = np.zeros(DIM, dtype=np.int64)
    if i < 8:
        p8, s8 = _rep8_perm(i)
        for s in range(2):
            for a in range(8):
                q = p8[8 * s + a]
                sg = s8[8 * s + a]
                s2, a2 = divmod(q, 8)
                for t in range(2):
                    nu = 1 if t == 0 else -1
                    for b in range(8):
                        src = pinor_index(s, t, a, b)
                        perm[src] = pinor_index(s2, t, a2, b)
                        sign[src] = sg * nu
    else:
        p8, s8 = _rep8_perm(i - 8)
        for t in range(2):
            for b in range(8):
                q = p8[8 * t + b]
                sg = s8[8 * t + b]
                t2, b2 = divmod(q, 8)
                for s in range(2):
                    for a in range(8):
                        src = pinor_index(s, t, a, b)
                        perm[src] = pinor_index(s, t2, a, b2)
                        sign[src] = sg
    return perm, sign


_GENS = [_gen16(i) for i in range(16)]


def _compose(pa, sa, pb, sb):
    """Signed-permutation product A B: (AB)e_b = sb[b] sa[pb[b]] e_{pa[pb[b]]}."""
    return pa[pb], sa[pb] * sb


def _blade_perm(indices):
    """Signed permutation of an ordered generator product E_{i1}...E_{ik}."""
    perm = np.arange(DIM, dtype=np.int64)
    sign = np.ones(DIM, dtype=np.int64)
    for i in indices:
        if not 1 <= i <= 16:
            raise ValueError(f"generator index out of range: {i}")
        pb, sb = _GENS[i - 1]
        perm, sign = _compose(perm, sign, pb, sb)
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


def _parity(v):
    """Parity of the set bits of each entry of a uint8 array."""
    v = v ^ (v >> 4)
    v = v ^ (v >> 2)
    return (v ^ (v >> 1)) & 1


def _xor_form(perm, sign):
    """(a, b, t) with perm[c] = c xor a and sign[c] = t (-1)^(b.c) for all c.

    Raises ValueError when the signed permutation has no such form.
    """
    c = np.arange(DIM, dtype=np.uint8)
    a, t = int(perm[0]), int(sign[0])
    b = sum(1 << k for k in range(8) if sign[1 << k] != t)
    if not (np.array_equal(perm, c ^ a)
            and np.array_equal(sign, t * (1 - 2 * _parity(c & b).astype(np.int64)))):
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
    for h, (perm, sign) in enumerate(_GENS):
        a, b, t = _xor_form(perm, sign)
        sz = 1 << h
        X[sz:2 * sz] = X[:sz] ^ a
        Z[sz:2 * sz] = Z[:sz] ^ b
        SIG[sz:2 * sz] = SIG[:sz] * t * (1 - 2 * _parity(Z[:sz] & a).astype(np.int8))
    return X, Z, SIG


_BOUND = 1 << 55  # 256 * |entry| stays below 2^63


def endo_to_form(A):
    """Project a 256x256 endomorphism onto blade coordinates.

    Returns sum_I tr(rep16(I)^T A) / 256 E_I as an exact form on R^16.  With
    blade m as (X, Z, SIG), tr(E_m^T A) = SIG[m] H[X[m], Z[m]], where H is the
    rows of D[x, c] = A[c xor x, c] through the Walsh-Hadamard transform: one
    256x256 gather plus an 8-stage integer butterfly.  Takes integer entries
    with |a| < 2^55, so no sum leaves int64; raises TypeError on anything
    inexact, to keep the exact lane honest, and ValueError beyond the bound.
    """
    M = np.asarray(A)
    if M.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} matrix, got {M.shape}")
    if M.dtype != object and not np.issubdtype(M.dtype, np.integer):
        raise TypeError("endo_to_form needs an integer-valued matrix")
    if ((M >= _BOUND) | (M <= -_BOUND)).any():
        raise ValueError("endo_to_form needs entries with |a| < 2^55")
    M2 = M.astype(np.int64)
    if M.dtype == object and not (M2.astype(object) == M).all():
        raise TypeError("endo_to_form needs an integer-valued matrix")
    cols = np.arange(DIM)
    H = M2[cols[:, None] ^ cols[None, :], cols[None, :]]  # D, transformed in place below
    for k in range(8):
        H = H.reshape(DIM, -1, 2, 1 << k)
        H = np.stack((H[:, :, 0] + H[:, :, 1], H[:, :, 0] - H[:, :, 1]), axis=2)
    X, Z, SIG = _blade_tables()
    sums = SIG * H.reshape(DIM, DIM)[X, Z]
    return RealForm._own(16, {int(m): Fraction(int(sums[m]), 256) for m in np.nonzero(sums)[0]})
