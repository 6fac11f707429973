import math

import pytest
from hypothesis import given, settings, strategies as st

from pwsfold.roots import polish_bracketed_root, real_quadratic_roots


class TestQuadratic:
    def test_two_real_roots_sorted(self):
        assert real_quadratic_roots(1.0, -3.0, 2.0) == (1.0, 2.0)

    def test_double_root_once(self):
        assert real_quadratic_roots(1.0, -2.0, 1.0) == (1.0,)

    def test_complex_pair_empty(self):
        assert real_quadratic_roots(1.0, 0.0, 1.0) == ()

    def test_linear(self):
        assert real_quadratic_roots(0.0, 5.0, -3.0) == (0.6,)

    def test_degenerate_constant(self):
        assert real_quadratic_roots(0.0, 0.0, 2.0) == ()

    def test_ascending_with_negative_leading_coefficient(self):
        assert real_quadratic_roots(-1.0, 3.0, -2.0) == (1.0, 2.0)
        assert real_quadratic_roots(-2.0, -2.0, 4.0) == (-2.0, 1.0)

    def test_ascending_without_linear_term(self):
        assert real_quadratic_roots(1.0, 0.0, -4.0) == (-2.0, 2.0)
        assert real_quadratic_roots(-1.0, 0.0, 4.0) == (-2.0, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.0, -1.0]),
           st.floats(-1e6, 1e6))
    def test_ascending_property(self, a, b_sign, c):
        # b = 0 and both signs of a and b, on scaled inputs
        roots = real_quadratic_roots(a, b_sign * abs(c - a), c)
        assert list(roots) == sorted(roots)

    def test_cancellation_safe_small_root(self):
        # naive (-b + sqrt(b^2-4ac))/(2a) loses the small root to cancellation
        roots = real_quadratic_roots(1.0, 1e8, 1.0)
        small = min(roots, key=abs)
        assert small == pytest.approx(-1e-8, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_residuals_property(self, a, b, c):
        roots = real_quadratic_roots(a, b, c)
        scale = max(abs(a), abs(b), abs(c), 1.0)
        for x in roots:
            if abs(x) > 1e9:
                continue  # huge roots from near-degenerate leading terms
            residual = a * x * x + b * x + c
            assert abs(residual) <= 1e-7 * scale * max(1.0, x * x)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_count_matches_discriminant(self, a, b, c):
        disc = b * b - 4 * a * c
        n = len(real_quadratic_roots(a, b, c))
        if disc > 1e-9:
            assert n == 2
        elif disc < -1e-9:
            assert n == 0


class TestBracketPolish:
    def test_simple_root(self):
        f = lambda x: x * x - 2.0
        r = polish_bracketed_root(f, 0.0, 2.0, f(0.0), f(2.0))
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_endpoint_zero(self):
        f = lambda x: x
        assert polish_bracketed_root(f, 0.0, 1.0, 0.0, 1.0) == 0.0

    def test_steep_function(self):
        f = lambda x: math.tanh(50.0 * (x - 0.3))
        r = polish_bracketed_root(f, 0.0, 1.0, f(0.0), f(1.0))
        assert abs(f(r)) <= 1e-12

    def test_flat_end(self):
        # f has its maximum 1e-6 at the end 0; plain false position moved
        # only the other end, 200 times, and returned 0.016 with
        # |f| = 2.6e-4
        calls = []

        def f(x):
            calls.append(x)
            return 1e-6 - (1.0 - x * x) * x * x

        r = polish_bracketed_root(f, 0.0, 1.0 / 32.0, 1e-6, f(1.0 / 32.0))
        assert abs(f(r)) <= 1e-12
        assert len(calls) <= 20

    def test_invalid_bracket(self):
        f = lambda x: x + 1.0
        with pytest.raises(ValueError):
            polish_bracketed_root(f, 0.0, 1.0, f(0.0), f(1.0))
