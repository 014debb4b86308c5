"""Tests of the grid sums behind the brute-force coefficient oracle
(eisenstein.grid_exp_sum and eisenstein.bf_weighted_sum) against direct
summation."""

import cmath

import pytest

from mirabolic.eisenstein import bf_weighted_sum, grid_exp_sum


def brute_grid_exp_sum(d, r):
    import itertools

    total = 0j
    for v in itertools.product(range(d), repeat=len(r)):
        total += cmath.exp(2j * cmath.pi * sum(ri * vi for ri, vi in zip(r, v)) / d)
    return total


@pytest.mark.parametrize(
    "d,r",
    [(1, (3,)), (4, (2,)), (5, (0, 0)), (6, (2, 3)), (7, (-1, 5)), (3, (1, 1, 1))],
)
def test_grid_exp_sum_against_brute_force(d, r):
    assert abs(grid_exp_sum(d, r) - brute_grid_exp_sum(d, r)) < 1e-9 * d ** len(r)


def test_grid_exp_sum_orthogonality():
    # the full-grid sum is d^m when d | every r_j, else 0
    assert abs(grid_exp_sum(6, (6, 12)) - 36) < 1e-9
    assert abs(grid_exp_sum(6, (6, 5))) < 1e-9


def test_weighted_sum_skips_zero_weights():
    # only d=1 contributes when the character vanishes elsewhere
    v = bf_weighted_sum(2, 1.0, (5,), 6, [1.0, 0, 0, 0, 0, 0])
    assert abs(v - 1.0) < 1e-12
