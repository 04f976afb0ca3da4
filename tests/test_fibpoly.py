import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tilings.complexes import build_complex
from tilings.fibpoly import (ONE, Poly, X, a_unit_closed_form, affine_rank,
                             apply_A, bareiss_rank, catalan,
                             catalan_identity_check, f_polynomial, fibonacci,
                             multiset_no_consecutive_count, p_closed_form,
                             p_polynomial, p_raw)
from tilings.matchings import cube_coordinates, enumerate_perfect_matchings
from tilings.planar import build_ladder


class TestPoly:
    def test_canonical_trim(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).coeffs == ()
        assert Poly().degree is None
        assert Poly([5]).degree == 0

    def test_arithmetic(self):
        p = Poly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p + Poly([0, -1])).coeffs == (1,)
        assert (p - p).coeffs == ()
        assert (3 * p).coeffs == (3, 3)
        assert (-p).coeffs == (-1, -1)
        assert p.shift(2).coeffs == (0, 0, 1, 1)
        with pytest.raises(ValueError, match="negative"):
            p.shift(-1)

    def test_substitution_and_eval(self):
        # (x+1)^2 at x-1 gives x^2.
        sq = Poly([1, 2, 1])
        assert sq.substitute_x_minus_1() == Poly([0, 0, 1])
        assert sq(3) == 16
        assert Poly([1, 0, 2])(5) == 51

    def test_immutability_and_hash(self):
        p = Poly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)
        assert hash(p) == hash(Poly([1, 2, 0]))

    @given(st.lists(st.integers(-9, 9), max_size=6),
           st.lists(st.integers(-9, 9), max_size=6),
           st.integers(-3, 3))
    def test_mul_evaluates_pointwise(self, a, b, x):
        pa, pb = Poly(a), Poly(b)
        assert (pa * pb)(x) == pa(x) * pb(x)
        assert (pa + pb)(x) == pa(x) + pb(x)

    @given(st.lists(st.integers(-9, 9), max_size=6), st.integers(-3, 3))
    def test_substitution_shifts_argument(self, a, x):
        p = Poly(a)
        assert p.substitute_x_minus_1()(x) == p(x - 1)


class TestFPolynomials:
    def test_bases(self):
        assert f_polynomial(0) == ONE
        assert f_polynomial(1) == Poly([2, 1])
        assert f_polynomial(2) == Poly([3, 2])
        assert f_polynomial(3) == Poly([5, 5, 1])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recurrence_matches_enumeration(self, n):
        want = Poly(build_complex(build_ladder(n)).f_vector())
        assert f_polynomial(n) == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bumped_matches_enumeration(self, n):
        for i in range(1, n + 1):
            want = Poly(build_complex(build_ladder(n, i)).f_vector())
            assert f_polynomial(n, i) == want

    def test_bump_out_of_range(self):
        with pytest.raises(ValueError):
            f_polynomial(3, 4)
        with pytest.raises(ValueError):
            f_polynomial(-1)

    def test_long_ladder_without_deep_recursion(self):
        # Far past the interpreter's recursion limit.
        assert f_polynomial(1200)(0) == fibonacci(1202)

    def test_sweep_multiplies_once_per_step(self, monkeypatch):
        # Each F(n) above the bases is one product of two cached values, so
        # no lower F is computed again.
        f_polynomial.cache_clear()
        calls = []
        mul = Poly.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        for n in range(1, 301):
            f_polynomial(n, None)
        assert len(calls) <= 300


class TestPPolynomials:
    def test_small_values(self):
        assert p_polynomial(1) == Poly([1, 1])
        assert p_polynomial(3) == Poly([1, 3, 1])
        assert p_polynomial(4) == Poly([1, 4, 3])
        assert p_polynomial(3, 1) == Poly([1, 4, 2])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_closed_form(self, n):
        assert p_polynomial(n) == p_closed_form(n)

    def test_second_name_is_the_same_function(self):
        assert p_raw is p_polynomial

    def test_closed_form_examples(self):
        assert p_closed_form(2) == Poly([1, 2])
        assert p_closed_form(5) == Poly([1, 5, 6, 1])

    def test_closed_form_range(self):
        with pytest.raises(ValueError):
            p_closed_form(-1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fibonacci_evaluation(self, n):
        assert p_polynomial(n)(1) == fibonacci(n + 2)
        assert f_polynomial(n)(0) == fibonacci(n + 2)
        assert f_polynomial(n)(0) == len(
            enumerate_perfect_matchings(build_ladder(n)))

    def test_bumped_recurrence_lemma_form(self):
        # P_{2d-1,1} = P_{2d-1} + x P_{2d-3}
        for d in range(2, 6):
            lhs = p_polynomial(2 * d - 1, 1)
            rhs = p_polynomial(2 * d - 1) + p_polynomial(2 * d - 3).shift(1)
            assert lhs == rhs

    @pytest.mark.parametrize("n", range(2, 15))
    def test_plain_recurrence(self, n):
        # P_n = P_{n-1} + x P_{n-2}
        assert p_polynomial(n) == (
            p_polynomial(n - 1) + p_polynomial(n - 2).shift(1))

    @pytest.mark.parametrize("bump", range(1, 9))
    def test_bumped_recurrence_same_bump(self, bump):
        # P_{n,b} = P_{n-1,b} + x P_{n-2,b} while the bump fits both
        for n in range(bump + 2, 15):
            assert p_polynomial(n, bump) == (
                p_polynomial(n - 1, bump) + p_polynomial(n - 2, bump).shift(1))

    @pytest.mark.parametrize("bump", range(3, 9))
    def test_bumped_recurrence_shifted_bump(self, bump):
        # P_{n,b} = P_{n-1,b-1} + x P_{n-2,b-2}: the recurrence at the left
        # end, which moves the bump
        for n in range(bump, 15):
            assert p_polynomial(n, bump) == (
                p_polynomial(n - 1, bump - 1)
                + p_polynomial(n - 2, bump - 2).shift(1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cube_distance_interpretation(self, n):
        g = build_ladder(n)
        ms = enumerate_perfect_matchings(g)
        vertical = [m for m in ms
                    if all(u + 1 == w for u, w in m.edges)][0]
        coords = cube_coordinates(g, [vertical, *ms])
        p = p_polynomial(n)
        for k in range(len(p.coeffs)):
            assert p[k] == sum(1 for x in coords.values() if sum(x) == k)


class TestAMap:
    def test_a0(self):
        assert apply_A(0, ONE) == Poly([1, 2])

    def test_a1_on_p1(self):
        assert apply_A(1, p_polynomial(1)) == p_polynomial(3)

    def test_zero_maps_to_zero(self):
        assert apply_A(3, Poly()) == Poly()

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="degree"):
            apply_A(1, Poly([1, 1, 1]))

    @pytest.mark.parametrize("d", range(0, 11))
    def test_closed_form_matches_definition(self, d):
        for k in range(d + 1):
            basis = X.shift(k - 1) if k else ONE
            assert apply_A(d, basis) == a_unit_closed_form(d, k)

    def test_closed_form_examples(self):
        assert a_unit_closed_form(1, 0) == Poly([1, 2, -1])
        assert a_unit_closed_form(4, 0) == Poly([1, 2, -1, 2, -5, 14])
        assert a_unit_closed_form(3, 3) == Poly([1, 2]).shift(3)

    def test_closed_form_range(self):
        with pytest.raises(ValueError):
            a_unit_closed_form(2, 3)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_ladder_step_identities(self, d):
        assert apply_A(d, p_polynomial(2 * d - 1)) == p_polynomial(2 * d + 1)
        assert apply_A(d, p_polynomial(2 * d)) == p_polynomial(2 * d + 2)
        assert apply_A(d + 1, p_polynomial(2 * d)) == p_polynomial(2 * d + 2)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_bumped_step_identities(self, d):
        for i in range(1, d // 2 + 1):
            for n in (2 * d - 1, 2 * d):
                assert apply_A(d, p_polynomial(n, i)) == p_polynomial(n + 2, i)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_adjacent_bump_difference(self, d):
        want = (X.shift(d) + X.shift(d - 1)) * (-1) ** (d + 1)
        diff = p_polynomial(2 * d + 1, d) - p_polynomial(2 * d + 1, d - 1)
        assert diff == want

    @pytest.mark.parametrize("d", range(0, 9))
    def test_injectivity_rank(self, d):
        rows = [[a_unit_closed_form(d, k)[j] for j in range(d + 2)]
                for k in range(d + 1)]
        assert bareiss_rank(rows) == d + 1


class TestCatalan:
    def test_values(self):
        assert [catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_matches_the_recursion(self):
        # C_m = sum of C_j C_(m-1-j) over j < m, from C_0 = 1.
        ref = [1]
        for m in range(1, 31):
            ref.append(sum(ref[j] * ref[m - 1 - j] for j in range(m)))
        assert [catalan(m) for m in range(31)] == ref

    def test_identity_examples(self):
        assert catalan_identity_check(1, 1) == (1, 1, True)
        assert catalan_identity_check(4, 2) == (6, 6, True)
        for n in range(2, 9):
            lhs, rhs, ok = catalan_identity_check(n, 1)
            assert ok and lhs == n

    def test_identity_full_range(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert catalan_identity_check(n, k)[2]

    def test_identity_range_guard(self):
        with pytest.raises(ValueError):
            catalan_identity_check(2, 3)


class TestAffineRank:
    def test_paper_instances(self):
        assert affine_rank(
            [p_polynomial(3), p_polynomial(4), p_polynomial(3, 1)], 2) == 2
        assert affine_rank([p_polynomial(5), p_polynomial(6),
                            p_polynomial(5, 1), p_polynomial(5, 2)], 3) == 3

    def test_coincident_points(self):
        p = p_polynomial(4)
        assert affine_rank([p, p], 2) == 0
        assert affine_rank([p], 2) == 0

    @pytest.mark.parametrize("d", range(2, 7))
    def test_ladder_family_rank(self, d):
        polys = [p_polynomial(2 * d - 1), p_polynomial(2 * d)]
        polys += [p_polynomial(2 * d - 1, i) for i in range(1, d)]
        assert affine_rank(polys, d) == d

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            affine_rank([Poly([1, 1, 1])], 1)
        with pytest.raises(ValueError):
            affine_rank([], 1)

    def test_bareiss_rank_basic(self):
        assert bareiss_rank([[1, 2], [2, 4]]) == 1
        assert bareiss_rank([[1, 0], [0, 1]]) == 2
        assert bareiss_rank([]) == 0
        assert bareiss_rank([[0, 0]]) == 0


class TestMultisetCounts:
    def test_examples(self):
        assert multiset_no_consecutive_count(4, 2) == 3
        assert multiset_no_consecutive_count(7, 0) == 1
        assert multiset_no_consecutive_count(3, 2, bump=1) == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_p_coefficients(self, n):
        for bump in [None] + list(range(1, n + 1)):
            p = p_polynomial(n, bump)
            for k in range(len(p.coeffs) + 1):
                assert p[k] == multiset_no_consecutive_count(n, k, bump)

    def test_range_guards(self):
        with pytest.raises(ValueError):
            multiset_no_consecutive_count(3, -1)
        with pytest.raises(ValueError):
            multiset_no_consecutive_count(3, 1, bump=4)


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_a_map_fills_its_cache_without_deep_recursion():
    # A fresh interpreter, so nothing is cached yet, with a recursion limit
    # far below d and n: the A images and the F and P caches fill upward.
    code = ("import sys; sys.setrecursionlimit(150)\n"
            "from tilings.fibpoly import (ONE, a_unit_closed_form, apply_A,\n"
            "    f_polynomial, fibonacci, p_polynomial)\n"
            "assert apply_A(120, ONE) == a_unit_closed_form(120, 0)\n"
            "f_polynomial(1200, 5)\n"
            "assert p_polynomial(1200)(1) == fibonacci(1202)\n"
            "assert f_polynomial(1200)(0) == fibonacci(1202)\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
