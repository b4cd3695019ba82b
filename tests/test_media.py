"""Maps, push-forwards, and the complementary-media constructors."""
import math

import numpy as np
import pytest

from calrlab.media import (
    RadialMedium,
    SmoothMap,
    check_inverse,
    compose,
    dcm_maps,
    dcm_verify,
    identity_map,
    kelvin_map,
    linear_map,
    make_cm_cloak,
    make_dcm_example,
    make_superlens,
    power_map,
    push_forward_tensor,
    vacuum_medium,
)


def _fd_jacobian(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    j = np.zeros((3, 3))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        j[:, k] = (fn(x + dx) - fn(x - dx)) / (2 * h)
    return j


def test_kelvin_basic_points():
    k = kelvin_map(2.0)
    assert np.allclose(k(np.array([1.0, 0, 0])), [4.0, 0, 0])
    assert np.allclose(k(np.array([2.0, 0, 0])), [2.0, 0, 0])  # fixed sphere


def test_kelvin_jacobian_det():
    # det grad = -R^6/|x|^6: at R=2, x=(1,0,0) -> -64  (hand-derived oracle)
    k = kelvin_map(2.0)
    assert k.jacobian_det(np.array([1.0, 0, 0])) == pytest.approx(-64.0, rel=1e-12)
    # FD cross-check of the full Jacobian
    x = np.array([0.3, -1.2, 0.7])
    assert np.allclose(k.jacobian(x), _fd_jacobian(k.forward, x), atol=1e-6)


def test_power_map_values_and_reduction():
    # p=3, r2=1, x=(0.5,0,0) -> x/|x|^3 = (4,0,0)
    pm = power_map(1.0, 3.0)
    assert np.allclose(pm(np.array([0.5, 0, 0])), [4.0, 0, 0])
    # p=2 reduces to the Kelvin map
    rng = np.random.default_rng(0)
    k2 = kelvin_map(2.0)
    p2 = power_map(2.0, 2.0)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert np.allclose(p2(x), k2(x), atol=1e-12)
    with pytest.raises(ValueError):
        power_map(2.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        p2(np.zeros(3))


def test_composition_scaling():
    # G o F with p=2, r2=2, r3=4 is the linear scaling by r3^2/r2^2 = 4
    f = power_map(2.0, 2.0)
    g = power_map(4.0, 2.0)
    gf = compose(g, f)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(3)
        assert np.allclose(gf(x), 4.0 * x, atol=1e-12)
    check_inverse(gf, rng.standard_normal((5, 3)))


def test_pushforward_identity_and_kelvin_shell():
    ident = identity_map()
    a = np.diag([2.0, 3.0, 4.0]).astype(complex)
    y = np.array([0.3, 0.4, 0.5])
    assert np.allclose(push_forward_tensor(ident, a, y), a)
    # Kelvin push of I lands on the sign-changing shell value -r2^2/|y|^2 I
    k = kelvin_map(2.0)
    y = np.array([1.1, -0.4, 0.6])
    ry2 = float(np.dot(y, y))
    got = push_forward_tensor(k, np.eye(3, dtype=complex), y)
    assert np.allclose(got, -(4.0 / ry2) * np.eye(3), atol=1e-12)


def test_pushforward_stack_matches_single_points_bitwise():
    f = power_map(2.0, 2.0)
    ys = np.random.default_rng(5).standard_normal((6, 3)) + np.array([3.0, 0, 0])
    got = push_forward_tensor(f, np.eye(3), ys)
    assert got.shape == (6, 3, 3)
    assert got.tobytes() == np.array(
        [push_forward_tensor(f, np.eye(3), y) for y in ys]).tobytes()
    # one flat point in the stack is enough to raise

    def flat_at_one(x):
        j = np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3)).copy()
        j[3] = 0.0
        return j

    flat = SmoothMap(forward=lambda x: x, inverse=lambda y: y, jacobian=flat_at_one)
    with pytest.raises(ZeroDivisionError):
        push_forward_tensor(flat, np.eye(3), ys)


def test_pushforward_functoriality():
    f = power_map(2.0, 2.0)
    g = power_map(4.0, 2.0)
    gf = compose(g, f)
    rng = np.random.default_rng(2)

    def tensor(x):
        return np.eye(3) + 0.1 * np.outer(np.sin(x), np.sin(x))

    for _ in range(10):
        y = rng.standard_normal(3) * 2 + np.array([3.0, 0, 0])
        direct = push_forward_tensor(gf, tensor, y)
        staged = push_forward_tensor(g, lambda z: push_forward_tensor(f, tensor, z), y)
        assert np.allclose(direct, staged, atol=1e-10)
    # (T^-1)_* T_* A = A; Kelvin is its own inverse
    for _ in range(5):
        x = rng.standard_normal(3) + np.array([0.5, 1.5, 0])
        back = push_forward_tensor(f, lambda z: push_forward_tensor(f, tensor, z), x)
        assert np.allclose(back, tensor(x), atol=1e-10)


def test_sign_law():
    # det grad F < 0 on the domain, so pushed positive tensors are negative
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        f = power_map(2.0, p)
        for _ in range(10):
            x = rng.standard_normal(3)
            if np.linalg.norm(x) < 1e-3:
                continue
            assert f.jacobian_det(x) < 0
            w = np.linalg.eigvalsh(push_forward_tensor(f, np.eye(3), f(x)).real)
            assert np.all(w < 0)


def test_boundary_fixed_points():
    # F(x) = x on the matched sphere |x| = r2
    f = power_map(2.0, 3.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(3)
        x *= 2.0 / np.linalg.norm(x)
        assert np.allclose(f(x), x, atol=1e-12)


def test_dcm_example_values():
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=0.0)
    assert med.provenance["r3"] == pytest.approx(4.0)
    assert med.provenance["m"] == pytest.approx(4.0)
    r = math.sqrt(2.0)
    eps, _ = med.tensors_at(np.array([r, 0, 0]))
    assert np.allclose(eps, -2.0 * np.eye(3), atol=1e-13)
    eps_core, _ = med.tensors_at(np.array([0.5, 0, 0]))
    assert np.allclose(eps_core, 4.0 * np.eye(3), atol=1e-13)
    # p=3: radial shell eigenvalue at r = r2 is -1/(p-1) = -0.5
    med3 = make_dcm_example(1.0, 2.0, p=3.0)
    eps3, _ = med3.tensors_at(np.array([2.0, 0, 0]))
    assert eps3[0, 0] == pytest.approx(-0.5, rel=1e-12)
    with pytest.raises(ValueError):
        make_dcm_example(1.0, 2.0, p=1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dcm_verify_residual(p):
    med = make_dcm_example(1.0, 2.0, p=p, delta=0.0)
    f, g = dcm_maps(med)
    r2, r3 = med.provenance["r2"], med.provenance["r3"]
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((12, 3))
    pts = pts / np.linalg.norm(pts, axis=1)[:, None]
    pts = pts * rng.uniform(r2 * 1.02, r3 * 0.98, 12)[:, None]
    assert dcm_verify(med, f, g, pts) < 1e-10


def test_dcm_verify_detects_perturbation():
    med = make_dcm_example(1.0, 2.0, p=2.0, delta=0.0)
    f, g = dcm_maps(med)
    # multiply the shell by 1.01: residual ~ 0.01 * |eps+|
    from calrlab.media.radial import Layer, LayerCoeff

    def perturbed(r):
        return 1.01 * (-(4.0) / (r * r))

    bad_layers = list(med.layers)
    bad_layers[1] = Layer(1.0, 2.0, LayerCoeff.iso(perturbed), LayerCoeff.iso(perturbed))
    bad = RadialMedium(layers=tuple(bad_layers), provenance=med.provenance)
    pts = np.array([[3.0, 0, 0], [0, 3.5, 0]])
    resid = dcm_verify(bad, f, g, pts)
    assert 0.001 < resid < 0.1


def test_dcm_verify_identity_trivial():
    med = vacuum_medium()
    med = RadialMedium(layers=med.layers,
                       provenance={"constructor": "dcm_example", "r2": 1.0, "r3": 2.0})
    ident = identity_map()
    pts = np.array([[1.5, 0, 0]])
    assert dcm_verify(med, ident, ident, pts) < 1e-14


def test_superlens_geometry_and_reference():
    med, ref = make_superlens(0.5, 4.0, (2.0 + 0j, 2.0 + 0j), delta=1e-3, r1=1.0)
    assert med.provenance["r2"] == pytest.approx(2.0)
    assert med.provenance["r3"] == pytest.approx(4.0)
    # shell value at r = sqrt(2): -2 I + i delta
    eps, _ = med.tensors_at(np.array([math.sqrt(2.0), 0, 0]))
    assert np.allclose(eps, (-2.0 + 1e-3j) * np.eye(3), atol=1e-12)
    # reference medium: object/m = 0.5 I inside B_2, vacuum outside
    eps_ref, _ = ref.tensors_at(np.array([1.5, 0, 0]))
    assert np.allclose(eps_ref, 0.5 * np.eye(3), atol=1e-13)
    eps_out, _ = ref.tensors_at(np.array([2.5, 0, 0]))
    assert np.allclose(eps_out, np.eye(3), atol=1e-13)
    # homogeneous object (1,1) reference reduces to scaled free space
    _, ref2 = make_superlens(0.5, 4.0, (1.0, 1.0), delta=0.0, r1=1.0)
    eps2, mu2 = ref2.tensors_at(np.array([1.0, 0, 0]))
    assert np.allclose(eps2, 0.25 * np.eye(3))
    with pytest.raises(ValueError):
        make_superlens(0.5, 4.0, (2.0, 2.0), delta=0.0, r1=0.9)


def test_cm_cloak_geometry():
    med = make_cm_cloak(1.0, 2.0, None, delta=0.0)
    assert med.provenance["r1"] == pytest.approx(0.5)
    assert med.provenance["m"] == pytest.approx(4.0)
    # empty cloak: complementary layer is the Kelvin push of I
    ref = make_dcm_example(0.5, 1.0, p=2.0, delta=0.0)
    for r in [0.6, 0.75, 0.95]:
        x = np.array([r, 0, 0])
        got, _ = med.tensors_at(x)
        want, _ = ref.tensors_at(x)
        assert np.allclose(got, want, atol=1e-12)
    # profile supported in (r2, 2 r2) reproduces the split: vacuum above 2 r2
    def stepped(r):
        return 3.0 if r < 1.4 else 1.0
    med2 = make_cm_cloak(1.0, 3.0, (stepped, stepped), delta=0.0)
    eps_hi, _ = med2.tensors_at(np.array([2.5, 0, 0]))
    assert np.allclose(eps_hi, np.eye(3), atol=1e-13)
    eps_lo, _ = med2.tensors_at(np.array([1.2, 0, 0]))
    assert np.allclose(eps_lo, 3.0 * np.eye(3), atol=1e-13)


def test_medium_layer_lookup_breakpoint_from_inside():
    med = make_dcm_example(1.0, 2.0)
    assert med.layer_index(1.0) == 0   # limit from inside
    assert med.layer_index(2.0) == 1
    assert med.layer_index(2.0000001) == 2


def test_linear_map_pushforward():
    a = np.array([[2.0, 0.5, 0], [0.5, 1.0, 0], [0, 0, 3.0]])
    lm = linear_map(a)
    y = a @ np.array([0.3, -0.2, 0.9])
    got = push_forward_tensor(lm, np.eye(3), y)
    want = a @ a.T / np.linalg.det(a)
    assert np.allclose(got, want, atol=1e-13)
    check_inverse(lm, np.random.default_rng(9).standard_normal((4, 3)))


def test_superlens_declared_ellipticity_check():
    make_superlens(0.5, 4.0, (2.0, 2.0), delta=0.0, r1=1.0, lam=3.0)
    with pytest.raises(ValueError):
        make_superlens(0.5, 4.0, (5.0, 2.0), delta=0.0, r1=1.0, lam=3.0)
