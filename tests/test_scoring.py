"""MaxSim scoring, its query gradient, and the KL distillation objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lateir.errors import DimMismatch, NonFiniteScore
from lateir.scoring import (
    NWayScoreVector,
    kl_distill_grad,
    kl_distill_loss,
    maxsim,
    maxsim_grad_query,
    maxsim_per_doc,
)

from conftest import unit_rows


def double_loop_maxsim(q, d):
    """Exhaustive oracle over all (i, j) token pairs."""
    total = 0.0
    for i in range(q.shape[0]):
        best = -math.inf
        for j in range(d.shape[0]):
            best = max(best, float(np.dot(q[i], d[j])))
        total += best
    return total


def double_loop_argmax(q, d):
    out = []
    for i in range(q.shape[0]):
        best, best_j = -math.inf, 0
        for j in range(d.shape[0]):
            s = float(np.dot(q[i], d[j]))
            if s > best:
                best, best_j = s, j
        out.append(best_j)
    return out


def scalar_kl(teacher, student, temperature):
    """Termwise p * ln(p / q) with mpmath extended precision."""
    import mpmath

    mpmath.mp.dps = 50
    t = [mpmath.mpf(x) / temperature for x in teacher]
    s = [mpmath.mpf(x) / temperature for x in student]
    zp = sum(mpmath.e**x for x in t)
    zq = sum(mpmath.e**x for x in s)
    total = mpmath.mpf(0)
    for ti, si in zip(t, s):
        p = mpmath.e**ti / zp
        q = mpmath.e**si / zq
        total += p * mpmath.log(p / q)
    return float(total)


class TestMaxsim:
    def test_exact_token_match(self, rng):
        q = np.array([[1.0, 0.0, 0.0]])
        d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert maxsim(q, d) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        d = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert maxsim(q, d) == 0.0

    def test_hand_example(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        d = np.array([[0.6, 0.8], [1.0, 0.0], [0.8, 0.6]])
        assert maxsim(q, d) == pytest.approx(double_loop_maxsim(q, d), abs=1e-12)
        assert maxsim(q, d) == pytest.approx(1.8, abs=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(200):
            dim = int(rng.choice([8, 64, 128]))
            q = unit_rows(rng, int(rng.integers(1, 16)), dim)
            d = unit_rows(rng, int(rng.integers(1, 48)), dim)
            assert maxsim(q, d) == pytest.approx(double_loop_maxsim(q, d), abs=1e-6)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            maxsim(unit_rows(rng, 2, 4), unit_rows(rng, 2, 8))

    def test_appending_token_monotone(self, rng):
        q = unit_rows(rng, 8, 16)
        d = unit_rows(rng, 20, 16)
        base = maxsim(q, d)
        for _ in range(20):
            extra = unit_rows(rng, 1, 16)
            assert maxsim(q, np.vstack([d, extra])) >= base - 1e-12

    def test_permutation_invariance(self, rng):
        q = unit_rows(rng, 6, 16)
        d = unit_rows(rng, 30, 16)
        base = maxsim(q, d)
        for _ in range(10):
            assert maxsim(q, d[rng.permutation(30)]) == pytest.approx(base, abs=1e-9)
            assert maxsim(q[rng.permutation(6)], d) == pytest.approx(base, abs=1e-9)

    def test_self_similarity(self, rng):
        for rows in (1, 5, 33):
            q = unit_rows(rng, rows, 24)
            assert maxsim(q, q) == pytest.approx(rows, abs=1e-5)


class TestMaxsimPerDoc:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_score_refused(self, rng, value):
        sims = unit_rows(rng, 3, 8) @ unit_rows(rng, 7, 8).T
        sims[1, 5] = value  # a token of document 2 (columns 3-6)
        with pytest.raises(NonFiniteScore, match="document 2 of 3"):
            maxsim_per_doc(sims, np.array([0, 1, 3, 7]))


class TestMaxsimGrad:
    def test_matching_token(self):
        q = np.array([[1.0, 0.0]])
        d = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(maxsim_grad_query(q, d), [[1.0, 0.0]])

    def test_hand_example(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        d = np.array([[0.6, 0.8], [1.0, 0.0], [0.8, 0.6]])
        expected = d[double_loop_argmax(q, d)]
        np.testing.assert_allclose(maxsim_grad_query(q, d), expected)
        np.testing.assert_allclose(maxsim_grad_query(q, d), [[1.0, 0.0], [0.6, 0.8]])

    def test_tie_breaks_lowest_index(self):
        q = np.array([[1.0, 0.0]])
        d = np.array([[0.0, 1.0], [0.0, -1.0]])  # both similarities are 0
        np.testing.assert_array_equal(maxsim_grad_query(q, d), [[0.0, 1.0]])

    def test_finite_differences(self, rng):
        h = 1e-5
        for _ in range(25):
            q = unit_rows(rng, 4, 8)
            d = unit_rows(rng, 12, 8)
            sims = q @ d.T
            top2 = np.sort(sims, axis=1)[:, -2:]
            if np.any(top2[:, 1] - top2[:, 0] < 1e-3):  # stay away from argmax ties
                continue
            grad = maxsim_grad_query(q, d)
            for i in range(q.shape[0]):
                for k in range(q.shape[1]):
                    qp, qm = q.copy(), q.copy()
                    qp[i, k] += h
                    qm[i, k] -= h
                    fd = (maxsim(qp, d) - maxsim(qm, d)) / (2 * h)
                    if abs(grad[i, k]) > 1e-8:
                        assert abs(fd - grad[i, k]) / abs(grad[i, k]) < 1e-4
                    else:
                        assert abs(fd) < 1e-6

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            maxsim_grad_query(unit_rows(rng, 2, 4), unit_rows(rng, 2, 8))


class TestNWayScoreVector:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            NWayScoreVector(student=[1.0], teacher=[1.0])
        with pytest.raises(ValueError):
            NWayScoreVector(student=[1.0, 2.0], teacher=[1.0, 2.0, 3.0])

    def test_n(self):
        v = NWayScoreVector(student=np.zeros(32), teacher=np.zeros(32))
        assert v.n == 32


class TestKLLoss:
    def test_identical_is_zero(self, rng):
        s = rng.standard_normal(32)
        v = NWayScoreVector(student=s, teacher=s.copy())
        assert abs(kl_distill_loss(v)) < 1e-12

    def test_two_way_oracle(self):
        v = NWayScoreVector(student=[0.0, 1.0], teacher=[1.0, 0.0])
        expected = scalar_kl([1.0, 0.0], [0.0, 1.0], 1.0)
        assert expected == pytest.approx(0.462117, abs=5e-7)
        assert kl_distill_loss(v, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_scalar_oracle_random(self, rng):
        for _ in range(20):
            t = rng.standard_normal(8) * 3
            s = rng.standard_normal(8) * 3
            temp = float(rng.uniform(0.25, 4.0))
            v = NWayScoreVector(student=s, teacher=t)
            assert kl_distill_loss(v, temp) == pytest.approx(
                scalar_kl(t, s, temp), abs=1e-12
            )

    def test_shift_invariance(self, rng):
        t = rng.standard_normal(16)
        s = rng.standard_normal(16)
        base = kl_distill_loss(NWayScoreVector(student=s, teacher=t))
        shifted = kl_distill_loss(NWayScoreVector(student=s + 7.25, teacher=t))
        assert abs(base - shifted) < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(200):
            v = NWayScoreVector(
                student=rng.standard_normal(32) * 5, teacher=rng.standard_normal(32) * 5
            )
            assert kl_distill_loss(v, float(rng.uniform(0.1, 10))) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
    )
    def test_nonnegative_property(self, a, b):
        n = min(len(a), len(b))
        v = NWayScoreVector(student=a[:n], teacher=b[:n])
        assert kl_distill_loss(v) >= 0.0

    def test_zero_iff_same_softmax(self, rng):
        s = rng.standard_normal(8)
        v = NWayScoreVector(student=s + 3.0, teacher=s)  # shift-equivalent softmax
        assert kl_distill_loss(v) == pytest.approx(0.0, abs=1e-12)
        w = NWayScoreVector(student=s + rng.standard_normal(8) * 0.5, teacher=s)
        assert kl_distill_loss(w) > 1e-6

    def test_stability_large_scores(self):
        v = NWayScoreVector(student=[1000.0, 999.0], teacher=[1000.0, 999.0])
        assert kl_distill_loss(v) == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteScore):
            kl_distill_loss(NWayScoreVector(student=[np.nan, 1.0], teacher=[0.0, 1.0]))
        with pytest.raises(NonFiniteScore):
            kl_distill_loss(NWayScoreVector(student=[0.0, 1.0], teacher=[np.inf, 1.0]))

    def test_temperature_validated(self):
        v = NWayScoreVector(student=[0.0, 1.0], teacher=[0.0, 1.0])
        with pytest.raises(ValueError):
            kl_distill_loss(v, 0.0)


class TestKLGrad:
    def test_identical_zero(self, rng):
        s = rng.standard_normal(32)
        np.testing.assert_allclose(
            kl_distill_grad(NWayScoreVector(student=s, teacher=s.copy())), 0.0, atol=1e-15
        )

    def test_sums_to_zero(self, rng):
        for _ in range(50):
            v = NWayScoreVector(
                student=rng.standard_normal(32) * 4, teacher=rng.standard_normal(32) * 4
            )
            assert abs(kl_distill_grad(v, float(rng.uniform(0.2, 5))).sum()) < 1e-9

    def test_finite_differences(self, rng):
        # vector-relative error ||fd - grad|| / ||grad||, the usual gradcheck metric
        h = 1e-5
        for _ in range(20):
            t = rng.standard_normal(32) * 2
            s = rng.standard_normal(32) * 2
            temp = float(rng.uniform(0.5, 2.0))
            grad = kl_distill_grad(NWayScoreVector(student=s, teacher=t), temp)
            fd = np.empty(32)
            for k in range(32):
                sp, sm = s.copy(), s.copy()
                sp[k] += h
                sm[k] -= h
                fd[k] = (
                    kl_distill_loss(NWayScoreVector(student=sp, teacher=t), temp)
                    - kl_distill_loss(NWayScoreVector(student=sm, teacher=t), temp)
                ) / (2 * h)
            assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-5

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteScore):
            kl_distill_grad(NWayScoreVector(student=[np.nan, 1.0], teacher=[0.0, 1.0]))
