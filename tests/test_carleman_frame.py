"""Fold maps and the aligned frame: Jacobians, invariants, anchor exactness."""
import math

import numpy as np
import pytest

from calrlab.carleman import (
    ClaimBounds,
    anchor_block,
    bform,
    build_frame,
    constant_field,
    fold_map,
    fold_map_flatten,
    fold_map_inverse,
    kn_matrix,
    lipschitz_test_field,
    pushed_matrix,
    sample_folded_sector,
    sample_transformed_domain,
    verify_structural_claims,
)


def _fd_jac(fn, x, h=1e-7):
    j = np.zeros((3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        j[:, k] = (fn(x + dx) - fn(x - dx)) / (2 * h)
    return j


def test_fold_n1_identity():
    x = np.array([0.3, 0.2, -0.7])
    pt, jac = fold_map(1.0, x)
    assert np.allclose(pt, x, atol=1e-14)
    assert np.allclose(jac, np.eye(3), atol=1e-12)


def test_fold_axis_fixed_point():
    pt, _ = fold_map(2.0, np.array([1.0, 0.0, 0.4]))
    assert np.allclose(pt, [1.0, 0.0, 0.4], atol=1e-14)


def test_fold_jacobian_matches_fd():
    rng = np.random.default_rng(2)
    for n in (1.5, 2.0, 7.0):
        for _ in range(7):
            x = np.array([rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(-1, 1)])
            pt, jac = fold_map(n, x)
            fd = _fd_jac(lambda z: fold_map(n, z)[0], x)
            assert np.allclose(jac, fd, atol=1e-6)
            assert np.allclose(fold_map_inverse(n, pt), x, atol=1e-10)


def test_fold_flatten_preserves_radius():
    x = np.array([-0.4, 0.9, 0.1])   # theta ~ 1.99 rad, inside (-3pi/4, 3pi/4)
    pt, jac = fold_map_flatten(1.5, x)
    assert np.hypot(pt[0], pt[1]) == pytest.approx(np.hypot(x[0], x[1]), rel=1e-13)
    assert abs(math.atan2(pt[1], pt[0])) < math.pi / 2
    fd = _fd_jac(lambda z: fold_map_flatten(1.5, z)[0], x)
    assert np.allclose(jac, fd, atol=1e-6)


def _random_spd(rng, lam):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    eigs = rng.uniform(1.0 / lam, lam, 3)
    return q @ np.diag(eigs) @ q.T


def test_frame_invariants():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m0 = _random_spd(rng, 5.0)
        fr = build_frame(m0, z3=float(rng.uniform(-0.5, 0.5)))
        assert np.allclose(fr.q.T @ fr.q, np.eye(3), atol=1e-12)
        assert np.allclose(fr.q1.T @ fr.q1, np.eye(3), atol=1e-12)
        # whitening: H M0 H^t = I
        assert np.allclose(fr.h @ m0 @ fr.h.T, np.eye(3), atol=1e-11)
        # pinned first row of Q1
        w = np.diag(fr.lams ** 0.5) @ fr.q.T @ np.array([1.0, 0, 0])
        assert np.allclose(fr.q1[0], w / np.linalg.norm(w), atol=1e-12)
        # rows 1, 2 of Q1 orthogonal to the image of the axis direction
        w3 = np.diag(fr.lams ** -0.5) @ fr.q.T @ np.array([0.0, 0, 1.0])
        assert abs(np.dot(fr.q1[0], w3)) < 1e-12
        assert abs(np.dot(fr.q1[1], w3)) < 1e-12
        # the half-space is preserved: H e1 has positive first component and
        # H(0,0,x3) keeps its first two components at zero
        img = fr.h @ np.array([0.0, 0.0, 0.73])
        assert np.hypot(img[0], img[1]) < 1e-12


def test_frame_identity_matrix():
    fr = build_frame(np.eye(3))
    assert np.allclose(fr.h, np.eye(3), atol=1e-12)
    assert fr.gamma == pytest.approx(1.0)


def test_frame_diag_example():
    # M0 = diag(4,1,1): H M0 H^t = I with H = diag(1/2,1,1) up to rotation
    fr = build_frame(np.diag([4.0, 1.0, 1.0]))
    assert np.allclose(fr.h @ np.diag([4.0, 1.0, 1.0]) @ fr.h.T, np.eye(3),
                       atol=1e-12)
    assert fr.gamma == pytest.approx(2.0)  # sqrt(det M0)


def test_kn_matrix_structure():
    fr = build_frame(np.eye(3))
    # n = 1: K_1 = gamma^(1/2) blockdiag(R(0), 1) H = I for the identity frame
    x = np.array([0.8, 0.1, 0.3])
    assert np.allclose(kn_matrix(fr, 1.0, x), np.eye(3), atol=1e-12)
    # the planar block is an exact rotation
    for n in (3.0, 10.0):
        k = kn_matrix(fr, n, x)
        blk = k[:2, :2]
        assert np.allclose(blk @ blk.T, np.eye(2), atol=1e-12)


def test_kn_determinant_relation():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m0 = _random_spd(rng, 4.0)
        fr = build_frame(m0)
        n = float(rng.uniform(2, 12))
        rhat = rng.uniform(1.0 / (4 * n), 2.0 / n)
        th = rng.uniform(-math.pi / (2 * n), math.pi / (2 * n))
        x = np.array([rhat * math.cos(th), rhat * math.sin(th), 0.05])
        # |det grad T_n| o T_n^{-1} = 1/(gamma n^2 rhat^(2n-2))
        det = abs(np.linalg.det(fr.t_jacobian(n, fr.t_inverse(n, x))))
        want = 1.0 / (fr.gamma * n * n * rhat ** (2.0 * n - 2.0))
        assert abs(det - want) <= 1e-10 * want


def test_kn_gradient_bound_scaling():
    # |grad K_n| <= c n^2 on the folded sector (sampled)
    fr = build_frame(np.eye(3))
    for n in (10.0, 20.0, 40.0):
        rhat = 1.2 / n
        x = np.array([rhat, 0.1 / n, 0.0])
        h = 1e-9
        g = 0.0
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = h
            g = max(g, float(np.max(np.abs(kn_matrix(fr, n, x + dx)
                                           - kn_matrix(fr, n, x - dx)))) / (2 * h))
        assert g < 5.0 * n * n


def test_pushed_matrix_anchor_exactness():
    # the module's sharpest exact test: M_n = gamma P for constant fields,
    # at every point of the folded sector
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(12):
        m0 = _random_spd(rng, 10.0)
        fr = build_frame(m0, z3=float(rng.uniform(-0.3, 0.3)))
        for n in (10.0, 20.0, 40.0):
            pts = sample_folded_sector(fr, n, 6, rng)
            for x in pts:
                got = pushed_matrix(fr, n, constant_field(m0), x)
                want = anchor_block(fr, n, x)
                worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10


def test_pushed_matrix_symmetry_random_field():
    fr = build_frame(np.diag([2.0, 1.0, 0.7]))
    field = lipschitz_test_field(3.0)
    rng = np.random.default_rng(7)
    for x in sample_folded_sector(fr, 30.0, 5, rng):
        m = pushed_matrix(fr, 30.0, field, x)
        assert np.max(np.abs(m - m.T)) < 1e-12


def test_bform_identity_value():
    # M = I: B = <y,y> + (3/2)|y|^2 = (5/2)|y|^2
    x = np.array([0.4, -0.2, 0.6])
    y = np.array([1.0, 2.0, -1.0])
    got = bform(constant_field(np.eye(3)), x, y)
    assert got == pytest.approx(2.5 * float(y @ y), rel=1e-9)
    assert bform(constant_field(np.eye(3)), x, np.zeros(3)) == pytest.approx(0.0)
    # quadratic in y
    assert bform(constant_field(np.eye(3)), x, 3.0 * y) == pytest.approx(
        9.0 * got, rel=1e-9)


def test_structural_claims_flat_in_n():
    # identity medium: measured constants O(1), flat across the fold sweep
    fr = build_frame(np.eye(3))
    bounds = {}
    for n in (10.0, 20.0, 40.0):
        bounds[n] = verify_structural_claims(fr, n, constant_field(np.eye(3)),
                                             count=60, seed=1)
    vals = [b.overall for b in bounds.values()]
    assert max(vals) < 50.0
    for a, b in zip(vals[:-1], vals[1:]):
        assert 0.5 < b / a < 2.0


def test_structural_claims_scaling_homogeneity():
    # with a fixed frame, scaling the medium by c transforms the measured
    # constants by their homogeneity degrees: the lower bound inversely (1/c),
    # the B-quadratic ratio linearly (B is degree 2 in the medium), and the
    # drift between c and c^2 (it mixes degree-1 and degree-2 terms)
    fr = build_frame(np.eye(3))
    c = 2.0
    base = verify_structural_claims(fr, 25.0, constant_field(np.eye(3)),
                                    count=40, seed=3)
    scaled = verify_structural_claims(fr, 25.0, constant_field(c * np.eye(3)),
                                      count=40, seed=3)
    assert scaled.lower == pytest.approx(base.lower / c, rel=1e-9)
    assert scaled.bquad == pytest.approx(c * base.bquad, rel=1e-6)
    assert c * base.drift <= scaled.drift * (1 + 1e-9)
    assert scaled.drift <= c * c * base.drift * (1 + 1e-9)


def test_fold_smooth_map_pushforward():
    from calrlab.carleman import fold_smooth_map
    from calrlab.media import check_inverse, push_forward_tensor
    sm = fold_smooth_map(3.0)
    rng = np.random.default_rng(8)
    pts = np.abs(rng.standard_normal((5, 3))) + 0.1
    check_inverse(sm, pts)
    # pushed identity stays symmetric positive away from the axis
    y = sm(np.array([0.5, 0.2, 0.1]))
    pushed = push_forward_tensor(sm, np.eye(3), y)
    assert np.allclose(pushed, pushed.T, atol=1e-12)


def test_structural_claims_constant_anisotropic():
    # zero Lipschitz constant: the bounds reduce to pure frame geometry and
    # stay finite with the declared ellipticity alone
    m0 = np.diag([2.0, 1.0, 0.5])
    fr = build_frame(m0)
    bounds = verify_structural_claims(fr, 10.0 * fr.lam_bound,
                                      constant_field(m0), count=50, seed=5)
    assert np.isfinite(bounds.overall)
    assert bounds.overall < 100.0
