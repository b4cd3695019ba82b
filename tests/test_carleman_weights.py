"""Weight identities, the central weighted inequality, and fold bookkeeping."""
import math

import numpy as np
import pytest

from calrlab.carleman import (
    BumpFunction,
    carleman_inequality_check,
    constant_field,
    exponent_bookkeeping,
    lipschitz_test_field,
    minimal_fold_parameter,
    weight_derivative_identity,
)
from calrlab.specfun import sphere_rule


def test_weight_derivative_identity_constant_m():
    # M = I, p = 2, beta = 1, x = e1: closed form vs finite differences
    resid = weight_derivative_identity(1.0, 2.0, constant_field(np.eye(3)),
                                       np.array([1.0, 0, 0]), h=1e-4)
    assert resid < 1e-5


def test_weight_derivative_identity_zero_beta():
    resid = weight_derivative_identity(0.0, 2.0, constant_field(np.eye(3)),
                                       np.array([0.7, 0.1, 0.2]))
    assert resid == 0.0


def test_weight_derivative_identity_linear_in_beta_at_zero():
    # leading order in beta: the closed form is linear; check the numerical
    # derivative of the divergence with respect to beta at 0 matches it
    m = constant_field(np.diag([1.0, 2.0, 3.0]))
    x = np.array([0.8, -0.3, 0.5])
    for beta in (1e-4, 2e-4):
        assert weight_derivative_identity(beta, 2.0, m, x, h=1e-4) < 1e-4


def test_weight_derivative_identity_variable_m():
    field = lipschitz_test_field(2.0)
    x = np.array([0.9, 0.2, -0.4])
    assert weight_derivative_identity(0.7, 3.0, field, x, h=1e-4) < 1e-4


def _bump():
    return BumpFunction(a=0.68, b=0.92)


def test_bump_derivatives_consistent():
    v = _bump()
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((10, 3))
    xs = xs / np.linalg.norm(xs, axis=1)[:, None] * rng.uniform(0.7, 0.9, 10)[:, None]
    h = 1e-6
    for x in xs:
        g = v.gradient(x[None, :])[0]
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            fd = (v.value((x + dx)[None, :])[0] - v.value((x - dx)[None, :])[0]) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=2e-5, abs=1e-9)
    # div(M grad v) against nested finite differences for anisotropic M
    m = np.diag([1.0, 1.5, 0.5])
    x = xs[0]
    closed = v.hessian_quadratic(x[None, :], m)[0]
    h = 1e-5
    fd = 0.0
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        fd += (m[k] @ v.gradient((x + dx)[None, :])[0]
               - m[k] @ v.gradient((x - dx)[None, :])[0]) / (2 * h)
    assert closed == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_inequality_zero_function():
    check = carleman_inequality_check(constant_field(np.eye(3)),
                                      BumpFunction(a=0.1, b=0.2),  # vanishes on shell
                                      beta=-32.0, p=8.0, shell=(0.55, 0.95))
    assert check.lhs == 0.0


@pytest.mark.parametrize("p", [8.0, 16.0])
def test_inequality_bump_beta_sweep(p):
    # the content of the weighted estimate: the measured constant stays
    # bounded as |beta| doubles (and the bump kills the boundary term)
    v = _bump()
    cs = []
    for beta in (-32.0, -64.0, -128.0):
        check = carleman_inequality_check(constant_field(np.eye(3)), v,
                                          beta=beta, p=p, shell=(0.55, 0.95))
        assert check.rhs_boundary < 1e-12 * max(check.rhs_interior, 1.0)
        cs.append(check.measured_c)
    assert max(cs) < math.inf
    for a, b in zip(cs[:-1], cs[1:]):
        assert 0.4 < b / a < 2.0


class Linear:
    """v = x1, harmonic, with no declared support."""

    def value(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float))[:, 0]

    def gradient(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g = np.zeros_like(x)
        g[:, 0] = 1.0
        return g

    def hessian_quadratic(self, x, m):
        return np.zeros(len(np.atleast_2d(x)))


def test_inequality_harmonic_function_boundary_controlled():
    # v = x1 is harmonic: div(M grad v) = 0 for constant M, so the left side
    # must be carried entirely by the boundary term
    check = carleman_inequality_check(constant_field(np.eye(3)), Linear(),
                                      beta=-32.0, p=8.0, shell=(0.55, 0.95))
    assert check.rhs_interior == pytest.approx(0.0, abs=1e-20)
    assert check.rhs_boundary > 0
    assert np.isfinite(check.measured_c)


def _node_by_node(m, v, beta, p, shell, quad_theta=8, panels_per_efold=2,
                  gauss_order=8, exponent_floor=80.0):
    """The refined (panel_mult 2) sums of the weighted inequality, one radial
    node at a time: the reference for the blocked quadrature."""
    a, b = shell
    support = getattr(v, "support", None)
    r_top = min(b, support[1]) if support else b
    r_bot = max(a, support[0]) if support else a
    ref = 2.0 * beta * r_top ** (-p)
    pts, wq, _, _ = sphere_rule(quad_theta)
    u_lo = r_top ** (-p)
    u_cut = min(r_bot ** (-p), u_lo + exponent_floor / (2.0 * abs(beta)))
    du = 1.0 / (2.0 * abs(beta) * panels_per_efold * 2)
    count = max(8, int(math.ceil((u_cut - u_lo) / du)))
    edges = np.linspace(u_lo, u_cut, count + 1) ** (-1.0 / p)
    nodes, gw = np.polynomial.legendre.leggauss(gauss_order)
    interior_lhs = 0.0
    interior_rhs = 0.0
    for lo, hi in zip(edges[1:], edges[:-1]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for r_i, w_i in zip(mid + half * nodes, half * gw):
            wgt = math.exp(max(2.0 * beta * r_i ** (-p) - ref, -700.0))
            if wgt == 0.0:
                continue
            xs = r_i * pts
            vals = v.value(xs)
            grads = v.gradient(xs)
            divmv = v.hessian_quadratic(xs, m)
            mgg = np.einsum("ij,jk,ik->i", grads, m, grads)
            area = w_i * r_i * r_i
            interior_lhs += area * wgt * float(np.sum(wq * (
                p ** 3 * beta ** 2 * r_i ** (-2 * p - 2) * np.abs(vals) ** 2
                + mgg)))
            interior_rhs += area * wgt * float(np.sum(wq * (
                r_i ** (p + 2) / (p * abs(beta)) * np.abs(divmv) ** 2)))
    boundary = 0.0
    for r_i in (a, b):
        xs = r_i * pts
        vals = v.value(xs)
        grads = v.gradient(xs)
        wgt = math.exp(max(2.0 * beta * r_i ** (-p) - ref, -700.0))
        boundary += wgt * r_i * r_i * float(np.sum(wq * (
            np.sum(np.abs(grads) ** 2, axis=1)
            + p ** 2 * beta ** 2 * r_i ** (-2 * p - 2) * np.abs(vals) ** 2)))
    return interior_lhs, interior_rhs, boundary


@pytest.mark.parametrize("v, m, shell", [
    (_bump(), np.diag([1.4, 0.8, 1.0]), (0.55, 0.95)),
    (Linear(), np.eye(3), (0.55, 0.95)),
    # 368 refined nodes, so the last block is partial, on a shell narrow
    # enough (11 e-folds of weight) that its nodes count in every bit
    (_bump(), np.diag([1.4, 0.8, 1.0]), (0.845, 0.85)),
], ids=["bump_anisotropic", "linear", "partial_block"])
def test_blocked_quadrature_matches_node_by_node(v, m, shell):
    check = carleman_inequality_check(constant_field(m), v, beta=-32.0, p=8.0,
                                      shell=shell)
    lhs, rhs_interior, rhs_boundary = _node_by_node(m, v, -32.0, 8.0, shell)
    assert check.lhs == lhs
    assert check.rhs_interior == rhs_interior
    assert check.rhs_boundary == rhs_boundary


def test_inequality_anisotropic_medium():
    v = _bump()
    m = np.diag([1.4, 0.8, 1.0])
    cs = []
    for beta in (-32.0, -64.0):
        check = carleman_inequality_check(constant_field(m), v, beta=beta, p=8.0)
        cs.append(check.measured_c)
    assert 0.4 < cs[1] / cs[0] < 2.0


def test_exponent_bookkeeping_limits():
    # s_n / tau_n -> e^{2 lam}; rho -> 1; the pinned radii gap
    for lam in (1.0, 2.0):
        table = exponent_bookkeeping(lam, 100.0 * lam, p=8.0)
        assert table.s_over_tau == pytest.approx(math.exp(2 * lam), rel=0.05)
        assert table.r2 - table.r1 == pytest.approx(8 * lam / (100.0 * lam) ** 2,
                                                    rel=1e-12)
    # rho is only admissible once R2 < R3 (n > 32 lam); from there it
    # decreases to 1 from above
    rhos = [exponent_bookkeeping(1.0, float(n), p=8.0).rho
            for n in range(40, 2000, 40)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
    assert all(r > 1.0 for r in rhos)
    assert rhos[-1] < 1.05


def test_minimal_fold_parameter():
    for alpha in (0.5, 0.9):
        n0 = minimal_fold_parameter(alpha, 1.0, p=8.0)
        assert n0 >= 10
        assert exponent_bookkeeping(1.0, float(n0), p=8.0).rho >= (1 + alpha) / 2
        if n0 > 10:
            assert exponent_bookkeeping(1.0, float(n0 - 1), p=8.0).rho < (1 + alpha) / 2
    # a harder alpha needs a larger fold
    assert minimal_fold_parameter(0.9, 1.0) >= minimal_fold_parameter(0.5, 1.0)


def test_bookkeeping_precondition():
    with pytest.raises(ValueError):
        exponent_bookkeeping(2.0, 15.0)
