"""Exact verification of the matrix construction, the group law, the
J_z maps, and the sublaplacian symbol."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pleijel import checks
from pleijel.admissibility import radon_hurwitz
from pleijel.core import DimPair, InadmissiblePair
from pleijel.htype_algebra import (
    GroupElement,
    HTypeStructure,
    SignedPermutation,
    _QMUL,
    construct,
    group_mul,
    to_json_dict,
    verify_structure,
    write_json,
)
from pleijel.oracles import Polynomial, from_json_dict, sublaplacian


def dense(s: HTypeStructure) -> tuple[np.ndarray, ...]:
    """The family as read-only dense int64 matrices: the dense reference view."""
    mats = np.array([P.rows() for P in s.family], dtype=np.int64)
    mats.setflags(write=False)
    return tuple(mats)


def jz_map(s: HTypeStructure, z) -> np.ndarray:
    """sum_j z_j U^(j) as a dense float matrix; orthogonal whenever |z| = 1."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (s.dim_t,):
        raise ValueError(f"z must have length {s.dim_t}, got shape {z.shape}")
    return np.tensordot(z, dense(s), axes=1)


# The construction redone on dense int64 matrices with numpy kron and @,
# as an oracle for the signed-permutation arithmetic.
_R2 = np.array([[0, -1], [1, 0]], dtype=np.int64)
_P2 = np.array([[0, 1], [1, 0]], dtype=np.int64)
_Q2 = np.array([[1, 0], [0, -1]], dtype=np.int64)


def _eye(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.int64)


def _quat_matrix(a: int, side: str) -> np.ndarray:
    M = np.zeros((4, 4), dtype=np.int64)
    for b in range(4):
        sign, c = _QMUL[a][b] if side == "left" else _QMUL[b][a]
        M[c, b] = sign
    return M


def _dense_hurwitz_radon(v: int) -> list[np.ndarray]:
    lefts = [_quat_matrix(a, "left") for a in (1, 2, 3)]
    if v == 1:
        return [_R2]
    if v == 2:
        return lefts
    if v == 3:
        return ([np.kron(_Q2, L) for L in lefts] + [np.kron(_R2, _eye(4))]
                + [np.kron(_P2, _quat_matrix(a, "right")) for a in (1, 2, 3)])
    if v == 4:
        return [np.kron(_Q2, B) for B in _dense_hurwitz_radon(3)] + [np.kron(_R2, _eye(8))]
    sixteen = _dense_hurwitz_radon(4)
    omega = reduce(np.matmul, sixteen)
    return ([np.kron(B, _eye(1 << (v - 4))) for B in sixteen]
            + [np.kron(omega, A) for A in _dense_hurwitz_radon(v - 4)])


def _dense_family(n: int, m: int) -> list[np.ndarray]:
    if m == 1:
        zero = np.zeros((n, n), dtype=np.int64)
        return [np.block([[zero, -_eye(n)], [_eye(n), zero]])]
    v = ((2 * n) & -(2 * n)).bit_length() - 1
    return [np.kron(F, _eye((2 * n) >> v)) for F in _dense_hurwitz_radon(v)[:m]]


_DENSE_PAIRS = [(n, m) for n in range(1, 9) for m in range(1, radon_hurwitz(2 * n))]
_DENSE_PAIRS += [(16, 9), (32, 11)]


def _group_mul_reference(s, a: GroupElement, b: GroupElement) -> GroupElement:
    """group_mul as one generic loop over the coordinates, whatever their
    type: the reference for its values and types."""
    x = tuple(xa + xb for xa, xb in zip(a.x, b.x))
    t = []
    for j, P in enumerate(s.family):
        corr = sum(xi * (sign * a.x[p]) for xi, p, sign in zip(b.x, P.perm, P.signs))
        half = Fraction(1, 2) if isinstance(corr, (int, Fraction)) else 0.5
        t.append(a.t[j] + b.t[j] + half * corr)
    return GroupElement(x=x, t=tuple(t))


def _typed(g: GroupElement) -> list:
    return [(v, type(v)) for v in g.x + g.t]


def rational_element(s, rng, span=30, max_den=10) -> GroupElement:
    x = tuple(Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(s.dim_x))
    t = tuple(Fraction(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(s.dim_t))
    return GroupElement(x=x, t=t)


def identity(s) -> GroupElement:
    return GroupElement(x=(0,) * s.dim_x, t=(0,) * s.dim_t)


def inverse(g: GroupElement) -> GroupElement:
    # <U x, -x> = 0 by skew-symmetry, so negation inverts
    return GroupElement(x=tuple(-v for v in g.x), t=tuple(-v for v in g.t))


class TestConstruct:
    def test_heisenberg_plane(self):
        s = construct((1, 1))
        assert dense(s)[0].tolist() == [[0, -1], [1, 0]]
        with pytest.raises(ValueError):  # a read-only dense view
            dense(s)[0][0, 1] = 1
        with pytest.raises(AttributeError):
            s.family = ()

    def test_heisenberg_block_form(self):
        s = construct((3, 1))
        U = dense(s)[0]
        n = 3
        assert (U[:n, :n] == 0).all() and (U[n:, n:] == 0).all()
        assert (U[:n, n:] == -np.eye(n, dtype=np.int64)).all()
        assert (U[n:, :n] == np.eye(n, dtype=np.int64)).all()

    def test_quaternionic_2_3(self):
        s = construct((2, 3))
        U = dense(s)
        assert len(U) == 3
        assert all(M.shape == (4, 4) for M in U)
        verify_structure(s)
        # the three matrices multiply like i, j, k up to sign: U1 U2 = +-U3
        prod = U[0] @ U[1]
        assert (prod == U[2]).all() or (prod == -U[2]).all()

    def test_inadmissible_raises_with_rho(self):
        with pytest.raises(InadmissiblePair) as err:
            construct((2, 4))
        assert err.value.rho_2n == 4
        assert "rho(4) = 4" in str(err.value)

    def test_all_admissible_pairs_up_to_dim_16(self):
        for n in range(1, 9):
            for m in range(1, radon_hurwitz(2 * n)):
                s = construct((n, m))
                verify_structure(s)  # exact integer axioms
                assert all(set(np.unique(U)) <= {-1, 0, 1} for U in dense(s))

    def test_large_two_adic_parts(self):
        # 2n = 32 needs the period-8 glue; 2n = 64 one more level
        for n, m in ((16, 9), (32, 11)):
            assert radon_hurwitz(2 * n) - 1 == m
            verify_structure(construct((n, m)))

    def test_verify_rejects_broken_structures(self):
        s = construct((2, 3))
        fam = s.family
        bad = HTypeStructure(pair=s.pair, family=(fam[0], fam[1], fam[0]))  # repeated matrix
        with pytest.raises(ValueError, match="anticommute"):
            verify_structure(bad)
        asym = SignedPermutation.identity(2)  # [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="skew"):
            verify_structure(HTypeStructure(pair=construct((1, 1)).pair, family=(asym,)))

    @pytest.mark.parametrize("pair", _DENSE_PAIRS)
    def test_signed_permutations_match_dense_products(self, pair):
        s = construct(pair)
        want = _dense_family(*pair)
        assert len(s.family) == len(want) == pair[1]
        for P, U, W in zip(s.family, dense(s), want):
            assert P.rows() == W.tolist()
            assert U.dtype == np.int64 and not U.flags.writeable and (U == W).all()


class TestGroupLaw:
    def test_identity_and_inverse(self):
        s = construct((2, 2))
        rng = random.Random(7)
        e = identity(s)
        for _ in range(50):
            a = rational_element(s, rng)
            assert group_mul(s, a, e) == a
            assert group_mul(s, e, a) == a
            assert group_mul(s, a, inverse(a)) == e
            assert group_mul(s, inverse(a), a) == e

    def test_associativity_exact_on_1000_random_rational_triples(self):
        s = construct((2, 3))
        rng = random.Random(42)
        for _ in range(1000):
            a, b, c = (rational_element(s, rng) for _ in range(3))
            assert group_mul(s, group_mul(s, a, b), c) == group_mul(s, a, group_mul(s, b, c))

    def test_associativity_on_bigger_group(self):
        s = construct((4, 7))
        rng = random.Random(3)
        for _ in range(100):
            a, b, c = (rational_element(s, rng) for _ in range(3))
            assert group_mul(s, group_mul(s, a, b), c) == group_mul(s, a, group_mul(s, b, c))

    def test_commutator_is_the_bracket(self):
        # t-part of a o b minus b o a equals <U^(j) x_a, x_b> exactly
        s = construct((2, 3))
        rng = random.Random(11)
        for _ in range(100):
            a = rational_element(s, rng)
            b = rational_element(s, rng)
            ab = group_mul(s, a, b)
            ba = group_mul(s, b, a)
            for j, U in enumerate(dense(s)):
                rows = U.tolist()
                bracket = sum(
                    b.x[i] * sum(rows[i][l] * a.x[l] for l in range(s.dim_x))
                    for i in range(s.dim_x)
                )
                assert ab.t[j] - ba.t[j] == bracket

    @pytest.mark.parametrize("pair", [(2, 3), (4, 7)])
    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "float"])
    def test_matches_the_generic_loop_in_value_and_type(self, pair, kind):
        s = construct(pair)
        rng = random.Random(f"{pair} {kind}")

        def coord():
            draw = rng.randrange(3) if kind in ("mixed", "float") else 0
            if kind == "int" or draw == 0:
                return rng.randint(-30, 30)
            if kind == "float" and draw == 1:
                return rng.uniform(-30, 30)
            return Fraction(rng.randint(-30, 30), rng.randint(1, 10))

        def element():
            return GroupElement(x=tuple(coord() for _ in range(s.dim_x)),
                                t=tuple(coord() for _ in range(s.dim_t)))

        e = identity(s)
        for _ in range(100):
            a, b = element(), element()
            for u, v in ((a, b), (b, a), (a, e), (e, a), (e, e), (a, inverse(a))):
                assert _typed(group_mul(s, u, v)) == _typed(_group_mul_reference(s, u, v))

    def test_check_algebra_sees_a_dropped_half(self, monkeypatch):
        # (x, t) o (xi, tau) = (x + xi, t + tau + <U x, xi>) is associative with
        # the same inverses; only the basis products pin the 1/2
        def without_half(s, a, b):
            ab = group_mul(s, a, b)
            return ab._replace(t=tuple(2 * u - ta - tb for u, ta, tb in zip(ab.t, a.t, b.t)))

        monkeypatch.setattr(checks, "group_mul", without_half)
        result = checks.check_algebra()
        assert not result.passed
        assert any(line.startswith("group law wrong on basis products:")
                   and "at (2,3)" in line for line in result.details)
        assert not any(line.startswith("group law exact") for line in result.details)

    def test_check_algebra_sees_a_transposed_bracket(self, monkeypatch):
        # <U xi, x> in place of <U x, xi>: the opposite group, associative too
        def transposed(s, a, b):
            return group_mul(s, b, a)._replace(x=tuple(u + v for u, v in zip(a.x, b.x)))

        monkeypatch.setattr(checks, "group_mul", transposed)
        result = checks.check_algebra()
        assert not result.passed
        assert any(line.startswith("group law wrong on basis products:")
                   and "at (8,8)" in line for line in result.details)
        assert not any(line.startswith("group law exact") for line in result.details)

    def test_dimension_mismatch(self):
        s = construct((1, 1))
        with pytest.raises(ValueError):
            group_mul(s, GroupElement(x=(1, 2, 3), t=(0,)), identity(s))

    @given(st.lists(st.fractions(max_denominator=8), min_size=6, max_size=6),
           st.lists(st.fractions(max_denominator=8), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_inverse_property_hypothesis(self, xs, ys):
        s = construct((2, 2))
        a = GroupElement(x=tuple(xs[:4]), t=tuple(xs[4:]))
        b = GroupElement(x=tuple(ys[:4]), t=tuple(ys[4:]))
        # (a o b)^-1 = b^-1 o a^-1, exactly
        lhs = inverse(group_mul(s, a, b))
        rhs = group_mul(s, inverse(b), inverse(a))
        assert lhs == rhs


def _skew_signed_permutations(dim: int):
    """Brute force: all (dim-1)!! 2^(dim/2) skew signed permutations on R^dim,
    fixed-point-free involutions with opposite signs on each transposition."""
    def pairings(items):
        if not items:
            yield []
        for idx in range(1, len(items)):
            for tail in pairings(items[1:idx] + items[idx + 1:]):
                yield [(items[0], items[idx])] + tail

    for pairing in pairings(list(range(dim))):
        for signs in itertools.product((1, -1), repeat=len(pairing)):
            perm, out = [0] * dim, [0] * dim
            for (i, j), sgn in zip(pairing, signs):
                perm[i], perm[j], out[i], out[j] = j, i, sgn, -sgn
            yield SignedPermutation(tuple(perm), tuple(out))


def _maximal_family(n: int):
    return construct((n, radon_hurwitz(2 * n) - 1)).family


class TestExtensions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_brute_force_on_every_prefix(self, n):
        every = list(_skew_signed_permutations(2 * n))
        family = _maximal_family(n)
        for k in range(len(family) + 1):
            want = {M for M in every if all(M.anticommutes(U) for U in family[:k])}
            got = list(checks._extensions(family[:k], 2 * n))
            assert len(got) == len(set(got)) and set(got) == want, k
        assert not want  # the whole family is maximal

    def test_empty_family_yields_every_candidate(self):
        got = list(checks._extensions((), 10))
        assert len(got) == len(set(got)) == 9 * 7 * 5 * 3 * 2**5
        assert set(got) == set(_skew_signed_permutations(10))

    @pytest.mark.parametrize("n", [n for n in range(1, 9) if radon_hurwitz(2 * n) > 2])
    def test_finds_the_dropped_member(self, n):
        family = _maximal_family(n)
        assert family[-1] in set(checks._extensions(family[:-1], 2 * n))

    def test_check_algebra_sees_a_non_maximal_family(self, monkeypatch):
        # a valid (6, 2) structure handed out for the maximal (6, 3) one
        def drop_at_12(pair):
            s = construct(pair)
            return HTypeStructure(DimPair(6, 2), s.family[:2]) if s.pair == (6, 3) else s

        monkeypatch.setattr(checks, "construct", drop_at_12)
        result = checks.check_algebra()
        assert not result.passed
        assert result.details[-1] == (
            "maximal family extended by a skew signed permutation at 2n = [12]")
        assert not any(line.startswith("no skew signed permutation") for line in result.details)

    def test_check_algebra_sees_a_family_that_is_not_a_prefix(self, monkeypatch):
        # members 0 and 4 of the maximal (4, 7) family: a valid (4, 2) structure,
        # but not the one the basis products at (4, 7) cover
        def skip_at_4_2(pair):
            s = construct(pair)
            if s.pair != (4, 2):
                return s
            family = construct((4, 7)).family
            return HTypeStructure(s.pair, (family[0], family[4]))

        monkeypatch.setattr(checks, "construct", skip_at_4_2)
        result = checks.check_algebra()
        assert not result.passed
        assert "family not a prefix of the maximal one at (4,2)" in result.details
        assert not any(line.startswith("group law exact") for line in result.details)


class TestJz:
    def test_basis_vectors_give_the_generators(self):
        s = construct((2, 3))
        for j in range(3):
            z = np.zeros(3)
            z[j] = 1.0
            assert (jz_map(s, z) == dense(s)[j]).all()

    def test_zero_map(self):
        s = construct((2, 3))
        assert not jz_map(s, np.zeros(3)).any()

    def test_orthogonal_on_100_random_unit_vectors(self):
        s = construct((4, 7))
        rng = np.random.default_rng(123)
        eye = np.eye(s.dim_x)
        for _ in range(100):
            z = rng.normal(size=7)
            z /= math.sqrt(float(z @ z))
            J = jz_map(s, z)
            assert np.max(np.abs(J.T @ J - eye)) <= 1e-12

    def test_scaling(self):
        # J_z^T J_z = |z|^2 I by anticommutation
        s = construct((2, 3))
        z = np.array([1.0, 2.0, -2.0])
        J = jz_map(s, z)
        assert np.max(np.abs(J.T @ J - 9.0 * np.eye(4))) <= 1e-12

    def test_dimension_check(self):
        s = construct((2, 3))
        with pytest.raises(ValueError):
            jz_map(s, np.ones(2))

    def test_check_algebra_sees_one_commuting_pair(self, monkeypatch):
        # U^(7) replaced by U^(6) at (4, 7): of the 28 z, only e_6 + e_7 sees it
        def repeat_at_4_7(pair):
            s = construct(pair)
            return s._replace(family=s.family[:6] + s.family[5:6]) if s.pair == (4, 7) else s

        monkeypatch.setattr(checks, "construct", repeat_at_4_7)
        result = checks.check_algebra()
        assert not result.passed
        assert "J_z^T J_z != |z|^2 I on 1 of 28 z at (4,7)" in result.details
        assert not any(line.startswith("J_z^T J_z = |z|^2 I") for line in result.details)


@pytest.fixture(scope="module")
def setup():
    s = construct((2, 2))
    return s, s.dim_x + s.dim_t


class TestSublaplacian:
    def test_linear_functions_are_harmonic(self, setup):
        s, nv = setup
        assert sublaplacian(s, Polynomial.variable(0, nv)).is_zero()  # x_1
        assert sublaplacian(s, Polynomial.variable(s.dim_x, nv)).is_zero()  # t_1

    def test_norm_squared(self, setup):
        s, nv = setup
        norm_sq = Polynomial(nv)
        for i in range(s.dim_x):
            v = Polynomial.variable(i, nv)
            norm_sq = norm_sq + v * v
        # Delta_x |x|^2 = 2 * dim x = 4n; all other pieces vanish
        assert sublaplacian(s, norm_sq) == Polynomial.constant(4 * s.pair.n, nv)

    def test_mixed_term(self, setup):
        s, nv = setup
        x1 = Polynomial.variable(0, nv)
        t1 = Polynomial.variable(s.dim_x, nv)
        rows = dense(s)[0].tolist()
        expected = Polynomial(nv, {
            tuple(1 if v == l else 0 for v in range(nv)): rows[0][l]
            for l in range(s.dim_x) if rows[0][l]
        })
        assert sublaplacian(s, x1 * t1) == expected  # (U^(1) x)_1, symbolically

    def test_central_quadratic_picks_up_the_weight(self, setup):
        s, nv = setup
        t1 = Polynomial.variable(s.dim_x, nv)
        got = sublaplacian(s, t1 * t1)  # = 2 * |x|^2/4 = |x|^2/2
        want = Polynomial(nv)
        for i in range(s.dim_x):
            v = Polynomial.variable(i, nv)
            want = want + (v * v).scale(Fraction(1, 2))
        assert got == want

    def test_variable_count_enforced(self, setup):
        s, _ = setup
        with pytest.raises(ValueError):
            sublaplacian(s, Polynomial.variable(0, 2))


class TestPolynomial:
    def test_arithmetic_is_exact(self):
        p = Polynomial.variable(0, 2)
        q = Polynomial.variable(1, 2)
        half = Polynomial.constant(Fraction(1, 2), 2)
        combo = (p + q) * (p + q) * half
        # (x+y)^2/2 = x^2/2 + xy + y^2/2
        assert combo.coeffs == {
            (2, 0): Fraction(1, 2),
            (1, 1): Fraction(1),
            (0, 2): Fraction(1, 2),
        }

    def test_differentiation(self):
        p = Polynomial(2, {(3, 1): Fraction(2)})  # 2 x^3 y
        assert p.diff(0).coeffs == {(2, 1): Fraction(6)}
        assert p.diff(1).diff(1).is_zero()

    def test_zero_coefficients_dropped(self):
        p = Polynomial(1, {(1,): Fraction(1)})
        q = Polynomial(1, {(1,): Fraction(-1)})
        assert (p + q).is_zero()


class TestJsonInterchange:
    def test_round_trip(self):
        s = construct((2, 3))
        data = to_json_dict(s)
        assert data["n"] == 2 and data["m"] == 3
        assert all(isinstance(v, int) for row in data["U"][0] for v in row)
        back = from_json_dict(json.loads(json.dumps(data)))
        assert back.pair == s.pair
        assert all((a == b).all() for a, b in zip(dense(back), dense(s)))

    def test_write_verifies_first(self, tmp_path):
        s = construct((1, 1))
        out = tmp_path / "h11.json"
        write_json(s, out)
        data = json.loads(out.read_text())
        assert data == {"n": 1, "m": 1, "U": [[[0, -1], [1, 0]]]}

    @pytest.mark.parametrize("n, U, message", [
        (1, [[[0, -1, 0], [1, 0, 0]]], "not a 2 x 2 matrix"),
        (1, [[0, 1]], "not a 2 x 2 matrix"),
        (1, [[[0, -2], [2, 0]]], "entries outside"),
        (1, [[[0, 1], [0, 1]]], "skew"),
        (1, [[[0, 0], [0, 0]]], "orthogonal"),
        (2, [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]] * 2, "anticommute"),
    ])
    def test_dense_payload_names_the_broken_axiom(self, n, U, message):
        with pytest.raises(ValueError, match=message):
            from_json_dict({"n": n, "m": len(U), "U": U})

    def test_corrupted_payload_rejected(self):
        s = construct((2, 3))
        data = to_json_dict(s)
        data["U"][0][0][1] = 1  # breaks skew-symmetry
        with pytest.raises(ValueError):
            from_json_dict(data)
