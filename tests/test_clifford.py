import hashlib
from fractions import Fraction

import numpy as np
import pytest

from calibench import clifford
from calibench.clifford import (
    DIM,
    POSITIVE_SPINOR_INDICES,
    S_PLUS,
    S_PRIME,
    endo_to_form,
    pinor_index,
    rep8_matrix,
    rep16,
    spinor_vector,
)
from calibench.forms import RealForm, mask_indices


def _unit8(i):
    return [Fraction(int(m == i)) for m in range(8)]


def _pinor_to_kron():
    # reindex (s,t,a,b) -> (8s+a, 8t+b) as one flat permutation
    sigma = np.zeros(DIM, dtype=np.intp)
    for s in range(2):
        for t in range(2):
            for a in range(8):
                for b in range(8):
                    sigma[pinor_index(s, t, a, b)] = 16 * (8 * s + a) + (8 * t + b)
    return sigma


def test_generators_match_tensor_product_oracle():
    sigma = _pinor_to_kron()
    nu = np.diag([1.0] * 8 + [-1.0] * 8)
    eye16 = np.eye(16)
    for i in range(1, 17):
        got = rep16((i,)).astype(float)
        r8 = rep8_matrix(_unit8((i - 1) % 8)).astype(float)
        oracle = np.kron(r8, nu) if i <= 8 else np.kron(eye16, r8)
        assert (got == oracle[np.ix_(sigma, sigma)]).all(), f"generator {i}"


def test_blades_match_oracle_products():
    sigma = _pinor_to_kron()
    nu = np.diag([1.0] * 8 + [-1.0] * 8)
    eye16 = np.eye(16)
    singles = []
    for i in range(16):
        r8 = rep8_matrix(_unit8(i % 8)).astype(float)
        k = np.kron(r8, nu) if i < 8 else np.kron(eye16, r8)
        singles.append(k[np.ix_(sigma, sigma)])
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        idx = tuple(sorted(rng.choice(16, size=k, replace=False) + 1))
        prod = np.eye(DIM)
        for i in idx:
            prod = prod @ singles[i - 1]
        assert (rep16(idx).astype(float) == prod).all(), idx


def test_generator_tables_are_pinned():
    # the oracles above build from rep8_matrix, so an error that _rep8_perm
    # passes on consistently needs this digest: the 16 generators, the blade
    # tables, and the exact P8 basis matrices with their entry types
    h = hashlib.sha256()
    arrays = [arr for gen in clifford.GENERATORS for arr in gen] + list(clifford._blade_tables())
    for arr in arrays:
        h.update(arr.dtype.str.encode() + arr.tobytes())
    for i in range(8):
        for coords in (_unit8(i), [int(m == i) for m in range(8)]):
            M = rep8_matrix(coords)
            h.update(repr([M.dtype.str] + [(type(x).__name__, str(x)) for x in M.flat]).encode())
    assert h.hexdigest() == "2a74d544aa754d9df1a628e2427baf122f3fa3dfeb4df68bd8c2b6384df1d4dc"


def test_generators_are_read_only():
    # other modules read the generators, so none may rewrite them in place
    for perm, sign in clifford.GENERATORS:
        for arr in (perm, sign):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_generator_relations():
    # squares are -1, distinct generators anticommute; composing signed
    # permutations keeps this O(n) instead of 256x256 matrix products
    ident = np.arange(DIM)
    for i in range(16):
        pi, si = clifford.GENERATORS[i]
        p2, s2 = pi[pi], si[pi] * si
        assert (p2 == ident).all() and (s2 == -1).all()
        for j in range(i + 1, 16):
            pj, sj = clifford.GENERATORS[j]
            pij, sij = pi[pj], si[pj] * sj
            pji, sji = pj[pi], sj[pi] * si
            assert (pij == pji).all() and (sij == -sji).all()


def test_volume_element_splits_pinor_space_in_half():
    perm = np.arange(DIM, dtype=np.int64)
    sign = np.ones(DIM, dtype=np.int64)
    for i in range(15, -1, -1):
        pi, si = clifford.GENERATORS[i]
        perm, sign = pi[perm], si[perm] * sign
    assert (perm == np.arange(DIM)).all()
    plus = {int(i) for i in np.nonzero(sign == 1)[0]}
    assert len(plus) == 128
    assert plus == set(POSITIVE_SPINOR_INDICES)
    assert S_PLUS in plus and S_PRIME in plus


def test_rep8_volume_is_the_half_space_reflection():
    prod = np.eye(16, dtype=object)
    for i in range(7, -1, -1):
        prod = rep8_matrix(_unit8(i)) @ prod
    expect = np.block([
        [np.eye(8, dtype=int), np.zeros((8, 8), dtype=int)],
        [np.zeros((8, 8), dtype=int), -np.eye(8, dtype=int)],
    ])
    assert (prod == expect).all()


def test_rep8_squares_to_minus_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        co = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(8)]
        M = rep8_matrix(co)
        nsq = sum(c * c for c in co)
        assert (M @ M == -nsq * np.eye(16, dtype=object)).all()


def test_rep16_validates_indices():
    with pytest.raises(ValueError):
        rep16((2, 1))
    with pytest.raises(ValueError):
        rep16((3, 3))
    with pytest.raises(ValueError):
        rep16((0,))
    with pytest.raises(ValueError):
        rep16((17,))
    assert (rep16(()) == np.eye(DIM, dtype=np.int64)).all()


def test_endo_to_form_inverts_rep16():
    rng = np.random.default_rng(23)
    for _ in range(25):
        k = int(rng.integers(0, 9)) * 2
        idx = tuple(int(i) for i in sorted(rng.choice(16, size=k, replace=False) + 1))
        assert endo_to_form(rep16(idx)) == RealForm.blade(16, idx)


def test_endo_to_form_is_linear_on_blade_span():
    f = 3 * RealForm.blade(16, (1, 2)) - 2 * RealForm.blade(16, (4, 7, 9, 16))
    A = 3 * rep16((1, 2)) - 2 * rep16((4, 7, 9, 16))
    assert endo_to_form(A) == f


def _probe_masks():
    """Blade masks the oracle tests read: the 16 generators, every weight-2
    mask, the full mask and 300 seeded masks."""
    rng = np.random.default_rng(31)
    singles = [1 << i for i in range(16)]
    pairs = [(1 << i) | (1 << j) for i in range(16) for j in range(i + 1, 16)]
    seeded = [int(m) for m in rng.integers(0, 1 << 16, size=300)]
    return singles + pairs + [(1 << 16) - 1] + seeded


def test_endo_to_form_matches_direct_trace():
    # oracle: tr(E_m^T A) / 256 summed over the composed signed permutation
    A = np.random.default_rng(29).integers(-1000, 1001, size=(DIM, DIM))
    f = endo_to_form(A)
    assert list(f._terms) == sorted(f._terms)  # storage order is by blade mask
    cols = np.arange(DIM)
    for m in _probe_masks():
        perm, sign = clifford._blade_perm(mask_indices(m))
        want = Fraction(int((sign * A[perm, cols]).sum()), 256)
        assert f.coefficient(m) == want, m


def test_matrix_unit_projects_to_256_unit_terms():
    for i, j in ((0, 0), (3, 200), (255, 17)):
        f = endo_to_form(256 * np.outer(spinor_vector(j), spinor_vector(i)))
        assert len(f) == 256
        assert {abs(c) for c in f._terms.values()} == {1}


def test_blade_tables_rebuild_each_signed_permutation():
    X, Z, SIG = clifford._blade_tables()
    cols = np.arange(DIM)
    for m in _probe_masks():
        perm, sign = clifford._blade_perm(mask_indices(m))
        parity = np.array([bin(int(Z[m]) & c).count("1") % 2 for c in range(DIM)])
        assert np.array_equal(perm, cols ^ int(X[m])), m
        assert np.array_equal(sign, int(SIG[m]) * (1 - 2 * parity)), m


def test_projection_tables_are_permutations():
    blade, _ = clifford._projection_tables()
    X, Z, _ = clifford._blade_tables()
    everything = np.arange(1 << 16)
    assert np.array_equal(blade[256 * Z.astype(np.intp) + X], everything)
    # the gather of all 256 columns reads every entry once
    gather = clifford._column_gather(np.arange(DIM)).ravel()
    assert np.array_equal(np.sort(gather), everything)
    c, x = np.divmod(everything, DIM)
    assert np.array_equal(gather, DIM * (c ^ x) + c)
    # the gather of a few columns is those columns of the full one
    cols = np.array([0, 7, 200])
    assert np.array_equal(clifford._column_gather(cols), gather.reshape(DIM, DIM)[:, cols])


def _endo_to_form_by_full_transform(A):
    """The reference projection: gather all 65,536 entries of D[c, x] =
    A[c xor x, c], run the butterfly on every column, and read every nonzero
    entry of the result."""
    M = np.asarray(A)
    blade, SIG = clifford._projection_tables()
    c = np.arange(DIM)
    gather = ((c[:, None] ^ c[None, :]) << 8 | c[:, None]).ravel()
    H = M.ravel().astype(np.int64)[gather]
    for k in range(8):
        V = H.reshape(-1, 2, DIM << k)
        a, b = V[:, 0], V[:, 1]
        a += b
        b *= -2
        b += a
    pos = np.flatnonzero(H)
    m = blade[pos]
    order = np.argsort(m, kind="stable")
    pos, m = pos[order], m[order]
    return RealForm(16, {k: Fraction(v, 256) for k, v in zip(m.tolist(), (SIG[m] * H[pos]).tolist())})


def _sparse_many_columns():
    # 600 seeded entries in +-1..9 land in most of the 256 columns
    rng = np.random.default_rng(43)
    A = np.zeros((DIM, DIM), dtype=np.int64)
    A.ravel()[rng.choice(DIM * DIM, size=600, replace=False)] = rng.integers(1, 10, size=600) * rng.choice([-1, 1], 600)
    return A


def _full_transform_cases():
    s, sp = spinor_vector(S_PLUS), spinor_vector(S_PRIME)
    cases = {f"blade_{k}": rep16(range(1, k + 1)) for k in range(17)}
    cases.update({
        "two_columns": rep16((1, 3)) + 2 * rep16((2, 16)),
        "spinor_psi": 256 * np.outer(s, s),
        "spinor_psi_prime": 256 * np.outer(sp, s),
        "sparse_many_columns": _sparse_many_columns(),
        "dense": np.random.default_rng(47).integers(-5, 6, size=(DIM, DIM)),
        "zero": np.zeros((DIM, DIM), dtype=np.int64),
        "int8": rep16((2, 5, 9)).astype(np.int8) - 3 * rep16((4,)).astype(np.int8),
        "uint16": 7 * np.abs(rep16((1, 2, 3, 4, 5, 6))).astype(np.uint16),
    })
    return cases


_FULL_TRANSFORM_CASES = _full_transform_cases()


@pytest.mark.parametrize("name", sorted(_FULL_TRANSFORM_CASES))
def test_endo_to_form_matches_the_full_transform_term_for_term(name):
    A = _FULL_TRANSFORM_CASES[name]
    got = endo_to_form(A)
    assert list(got.terms().items()) == list(_endo_to_form_by_full_transform(A).terms().items())
    assert list(got._terms) == sorted(got._terms)  # storage order is by blade mask
    if name == "two_columns":
        assert got == RealForm.blade(16, (1, 3)) + 2 * RealForm.blade(16, (2, 16))
    if name == "sparse_many_columns":
        assert len(np.unique(np.bitwise_xor(*np.nonzero(A)))) > 200
    if name == "zero":
        assert got.is_zero()


@pytest.mark.parametrize("case", ["swap", "sign"])
def test_blade_tables_reject_a_generator_of_other_form(monkeypatch, case):
    perm = np.arange(DIM, dtype=np.int64)
    sign = np.ones(DIM, dtype=np.int64)
    if case == "swap":
        perm[[1, 2]] = perm[[2, 1]]
    else:
        sign[3] = -1
    monkeypatch.setattr(clifford, "GENERATORS", clifford.GENERATORS[:5] + [(perm, sign)] + clifford.GENERATORS[6:])
    with pytest.raises(ValueError, match="signed XOR"):
        clifford._blade_tables.__wrapped__()


def test_endo_to_form_rejects_bad_input():
    with pytest.raises(ValueError):
        endo_to_form(np.eye(8))
    with pytest.raises(TypeError):
        endo_to_form(np.full((DIM, DIM), 0.5))
    half = np.zeros((DIM, DIM), dtype=object)
    half[0, 0] = Fraction(1, 2)
    with pytest.raises(TypeError):
        endo_to_form(half)
    # 256 entries of 2^62 would wrap an int64 sum
    with pytest.raises(ValueError, match=r"2\^55"):
        endo_to_form(2**62 * rep16((1, 2)))
    # an object array is refused by its dtype, even with int entries
    huge = rep16((1, 2)).astype(object)
    huge[0, 0] = 2**70
    with pytest.raises(TypeError, match="integer dtype"):
        endo_to_form(huge)
    assert endo_to_form(2**54 * rep16((1, 2))) == 2**54 * RealForm.blade(16, (1, 2))


@pytest.mark.parametrize("case", ["all_plus", "all_minus", "random_signs"])
def test_endo_to_form_at_the_int64_edge(case):
    # 256 * (2^55 - 1) is the largest sum the butterfly may form; stage 7
    # doubles a partial sum of 128 entries, so a wrong stage leaves int64
    top = 2**55 - 1
    if case == "random_signs":
        A = top * (1 - 2 * np.random.default_rng(37).integers(0, 2, size=(DIM, DIM)))
    else:
        A = np.full((DIM, DIM), top if case == "all_plus" else -top, dtype=np.int64)
    f = endo_to_form(A)
    blades = [(), tuple(range(1, 17)), (1,), (16,), (1, 2), (3, 7, 11), (2, 4, 6, 8, 10, 12, 14, 16),
              tuple(range(1, 16)), (9, 10, 11, 12, 13, 14, 15, 16)]
    Ao = A.astype(object)
    for idx in blades:
        want = Fraction(int((rep16(idx).astype(object) * Ao).sum()), 256)
        assert f.coefficient(idx) == want, idx


@pytest.mark.parametrize("top", [2**23 - 1, 2**23])
@pytest.mark.parametrize("case", ["all_plus", "all_minus", "random_signs"])
def test_endo_to_form_at_the_int32_edge(case, top):
    # below 2^23 the butterfly runs in int32, where 256 * (2^23 - 1) is the
    # largest sum; an entry of 2^23 takes the int64 path, and in int32 the
    # all-plus sum 256 * 2^23 would wrap
    if case == "random_signs":
        A = top * (1 - 2 * np.random.default_rng(41).integers(0, 2, size=(DIM, DIM)))
    else:
        A = np.full((DIM, DIM), top if case == "all_plus" else -top, dtype=np.int64)
    f = endo_to_form(A)
    Ao = A.astype(object)
    for idx in [(), tuple(range(1, 17)), (1,), (16,), (1, 2), (3, 7, 11), (2, 4, 6, 8, 10, 12, 14, 16),
                tuple(range(1, 16)), (9, 10, 11, 12, 13, 14, 15, 16)]:
        want = Fraction(int((rep16(idx).astype(object) * Ao).sum()), 256)
        assert f.coefficient(idx) == want, idx


def test_endo_to_form_rejects_the_dtype_extremes():
    # |int64 min| has no int64, so the bound is read off min and max
    low = np.zeros((DIM, DIM), dtype=np.int64)
    low[5, 9] = np.iinfo(np.int64).min
    with pytest.raises(ValueError, match=r"2\^55"):
        endo_to_form(low)
    high = np.zeros((DIM, DIM), dtype=np.uint64)
    high[0, 0] = 2**63
    with pytest.raises(ValueError, match=r"2\^55"):
        endo_to_form(high)


def test_endo_to_form_reads_the_bound_off_every_nonzero_entry():
    # the first nonzero entry is small and a later one decides the tier
    A = 2**24 * np.eye(DIM, dtype=np.int64)
    A[0, 0] = 1
    f = endo_to_form(A)  # in int32 the scalar's sum 1 + 255 * 2^24 would wrap
    assert f.coefficient(()) == Fraction(1 + 255 * 2**24, 256)
    assert f.coefficient(tuple(range(1, 17))) == Fraction(int((np.diagonal(rep16(range(1, 17))) * np.diagonal(A)).sum()), 256)
    B = rep16((1, 2))
    B[255, 3] = 2**55
    with pytest.raises(ValueError, match=r"2\^55"):
        endo_to_form(B)


def test_pinor_index_enumerates_the_space():
    seen = {pinor_index(s, t, a, b) for s in range(2) for t in range(2) for a in range(8) for b in range(8)}
    assert seen == set(range(DIM))
    assert S_PLUS == 0
    assert S_PRIME == pinor_index(0, 0, 1, 1)


def test_spinor_vector_and_outer_product():
    s = spinor_vector(S_PLUS)
    sp = spinor_vector(S_PRIME)
    assert s.sum() == 1 and s[S_PLUS] == 1
    P = np.outer(sp, s)
    assert P[S_PRIME, S_PLUS] == 1 and P.sum() == 1



def _signed_perm_apply(perm, sign, x):
    y = np.empty_like(x)
    y[perm] = sign * x
    return y


def test_spinor_matrix_is_the_kron_layout():
    x = np.arange(DIM)
    assert np.array_equal(clifford._spinor_matrix(x).ravel()[_pinor_to_kron()], x)


def test_rho_factorisation_matches_each_generator():
    # rho(e_i) X = R(e_i[:8]) X V + X R(e_i[8:])^T equals the signed
    # permutation of generator i on seeded spinors, exactly
    kernel = clifford.CliffordKernel(np.eye(16))
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, DIM))
    for i, (perm, sign) in enumerate(clifford.GENERATORS):
        L, Rt = kernel._factors(np.eye(16)[:, [i]])
        for x in xs:
            got = clifford._rho_apply(L[0], Rt[0], clifford._spinor_matrix(x))
            assert np.array_equal(got, clifford._spinor_matrix(_signed_perm_apply(perm, sign, x)))


def test_rho_pairings_pair_each_generator():
    kernel = clifford.CliffordKernel(np.eye(16))
    rng = np.random.default_rng(6)
    P, Q = rng.standard_normal((2, 3, 16, 16))
    got = kernel._pairings(P, Q)
    assert got.shape == (3, 16)
    for i in range(16):
        L, Rt = kernel._factors(np.eye(16)[:, [i]])
        for j in range(3):
            want = float((clifford._rho_apply(L[0], Rt[0], P[j]) * Q[j]).sum())
            assert abs(got[j, i] - want) <= 1e-12
