"""Fold maps and the aligned frame: Jacobians, invariants, anchor exactness."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calrlab.carleman.matrices as matrices
import calrlab.scenarios as scenarios
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
from calrlab.carleman.fold import _polar


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


def test_singular_whitening_is_a_numerical_guard():
    # |det H| = scale^(-3/2) underflows to 0 or overflows to inf, so gamma
    # = 1/|det H| would not be a positive finite float: the frame raises an
    # ArithmeticError, which a run reports as a tripped guard (exit 4)
    for scale in (1e300, 1e-300):
        with pytest.raises(ArithmeticError, match="singular whitening"):
            build_frame(np.diag([scale] * 3))
    fr = build_frame(np.diag([0.1, 1.0, 10.0]))
    assert fr.gamma == pytest.approx(1.0)


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
            got = pushed_matrix(fr, n, constant_field(m0), pts)
            want = anchor_block(fr, n, pts)
            worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10


def test_pushed_matrix_symmetry_random_field():
    fr = build_frame(np.diag([2.0, 1.0, 0.7]))
    field = lipschitz_test_field(3.0)
    rng = np.random.default_rng(7)
    m = pushed_matrix(fr, 30.0, field, sample_folded_sector(fr, 30.0, 5, rng))
    assert np.max(np.abs(m - np.swapaxes(m, -1, -2))) < 1e-12


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.floats(1.5, 60.0))
def test_stacked_maps_match_row_by_row(seed, n):
    # a point of a stack gets exactly the bits of a call on its own, for a
    # (k, 3) stack and a (2, k/2, 3) one
    rng = np.random.default_rng(seed)
    fr = build_frame(_random_spd(rng, 10.0), z3=float(rng.uniform(-0.3, 0.3)))
    pts = sample_folded_sector(fr, n, 8, rng)
    field = lipschitz_test_field(2.0)
    maps = {"kn_matrix": lambda x: kn_matrix(fr, n, x),
            "pushed_matrix": lambda x: pushed_matrix(fr, n, field, x),
            "anchor_block": lambda x: anchor_block(fr, n, x),
            "t_inverse": lambda x: fr.t_inverse(n, x)}
    rhat, theta = _polar(pts)
    assert np.array_equal(rhat, [math.hypot(x[0], x[1]) for x in pts])
    assert np.array_equal(theta, [math.atan2(x[1], x[0]) for x in pts])
    for name, fn in maps.items():
        rows = np.array([fn(x) for x in pts])
        assert np.array_equal(fn(pts), rows), name
        assert np.array_equal(fn(pts.reshape(2, 4, 3)),
                              rows.reshape((2, 4) + rows.shape[1:])), name


def test_folded_sector_draw_matches_scalar_draws():
    # one (count, 3) draw consumes the stream exactly as count draws of
    # (rhat, theta, x3 offset), one number at a time
    fr = build_frame(np.diag([2.0, 1.0, 0.7]), z3=0.2)
    for n in (1.5, 10.0, 40.0):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = sample_folded_sector(fr, n, 25, rng)
        want = []
        for _ in range(25):
            rhat = ref.uniform(1.0 / (4.0 * n) * 1.01, 2.0 / n * 0.99)
            th = ref.uniform(-math.pi / (2.0 * n), math.pi / (2.0 * n))
            x3 = fr.big_z0[2] + ref.uniform(-1.0 / n, 1.0 / n)
            want.append([rhat * math.cos(th), rhat * math.sin(th), x3])
        assert np.array_equal(got, np.asarray(want))
        assert rng.random() == ref.random()


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


def _bform_per_point(m_field, x, y, h):
    """<B(x) y, y> with seven one-point calls of m_field."""
    m = np.asarray(m_field(x), dtype=float)
    gm = np.empty((3, 3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        gm[k] = (np.asarray(m_field(x + dx), dtype=float)
                 - np.asarray(m_field(x - dx), dtype=float)) / (2 * h)
    my = m @ y
    mx = m @ x
    jw = m + np.einsum("jik,k->ij", gm, x)
    t1 = y @ (jw @ my)
    div_mx = np.trace(m) + sum(np.dot(gm[k][k, :], x) for k in range(3))
    t2 = 0.5 * div_mx * float(y @ my)
    dm_along = np.einsum("k,kij->ij", mx, gm)
    t3 = 0.5 * float(y @ (dm_along @ y))
    return float(t1) + t2 + t3


def _claims_per_point(frame, n, m_field, count, seed):
    """The structural-claim check one sample, one axis and one direction at
    a time: 49 one-point pushed_matrix calls per sample."""
    rng = np.random.default_rng(seed)
    samples = sample_transformed_domain(frame, n, count, rng)
    hz = frame.hat_z0(n)
    h = 1e-5 / (n * n)

    def m_hat(y):
        return pushed_matrix(frame, n, m_field, np.asarray(y) + hz)

    lower = drift = bquad = 0.0
    dirs = rng.standard_normal((6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for y in samples:
        m = m_hat(y)
        quad = float(y @ (m @ y))
        lower = max(lower, float(np.dot(y, y)) / quad)
        div_mx = 0.0
        grad_q = np.zeros(3)
        for k in range(3):
            dy = np.zeros(3)
            dy[k] = h
            mp_, mm_ = m_hat(y + dy), m_hat(y - dy)
            yp, ym = y + dy, y - dy
            div_mx += ((mp_ @ yp)[k] - (mm_ @ ym)[k]) / (2 * h)
            grad_q[k] = (float(yp @ (mp_ @ yp)) - float(ym @ (mm_ @ ym))) / (2 * h)
        drift = max(drift, abs(div_mx)
                    + abs(float(grad_q @ (m @ y))) / float(np.dot(y, y)))
        for d in dirs:
            b_val = _bform_per_point(m_hat, y, d, h)
            bquad = max(bquad, abs(b_val) / float(d @ (m @ d)))
    return ClaimBounds(lower=lower, drift=drift, bquad=bquad)


@pytest.mark.parametrize("medium", ["identity", "anisotropic", "lipschitz"])
def test_structural_claims_match_per_point_reference(medium):
    # one stencil per sample gives the bits of the per-point check
    if medium == "lipschitz":
        field = lipschitz_test_field(1.5)
        fr = build_frame(field(np.zeros(3)), lam=1.5)
    else:
        m0 = np.eye(3) if medium == "identity" else np.diag([1.4, 0.8, 1.0])
        field = constant_field(m0)
        fr = build_frame(m0)
    for n in (15.0, 30.0, 60.0):
        got = verify_structural_claims(fr, n, field, count=30, seed=2)
        want = _claims_per_point(fr, n, field, count=30, seed=2)
        assert (got.lower, got.drift, got.bquad) == (want.lower, want.drift,
                                                      want.bquad)
        assert [type(v) for v in (got.lower, got.drift, got.bquad)] == [
            type(v) for v in (want.lower, want.drift, want.bquad)]


def test_one_pushed_matrix_call_per_check(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(np.shape(args[-1]))
        return pushed_matrix(*args)

    monkeypatch.setattr(matrices, "pushed_matrix", counted)
    fr = build_frame(np.eye(3))
    verify_structural_claims(fr, 20.0, constant_field(np.eye(3)), count=10)
    assert calls == [(10, 7, 3)]
    calls.clear()
    monkeypatch.setattr(scenarios, "pushed_matrix", counted)
    scenarios.run_carleman_suite({**scenarios.SCENARIOS["carleman_suite"].defaults,
                                  "frame_count": 2, "claims_samples": 4,
                                  "ps": [8.0], "betas": [-32.0]})
    # two frames at three folds, then three claim checks
    assert calls == [(3, 3)] * 6 + [(4, 7, 3)] * 3


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
