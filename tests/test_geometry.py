import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from sjdyn import geometry
from sjdyn.geometry import (
    BallPoint,
    BargmannIndex,
    DiskPoint,
    FCPoint,
    JacobiPoint,
    ball_membership,
    disk_param,
    fc_forward,
    fc_inverse,
    kahler_metric,
    overlap_log,
    point_to_json,
)
from conftest import draw_ball_point

ROUND_TRIP_TOL = 1e-12
IDENTITY_TOL = 1e-12


def random_fc_point(rng, n, radius=0.4):
    eta = rng.normal(size=n) + 1j * rng.normal(size=n)
    return FCPoint(eta=eta, W=draw_ball_point(rng, n, radius).W)


# --- charts and the coordinate change ------------------------------------------


def test_fc_forward_at_ball_origin():
    p = FCPoint(eta=np.array([0.3 + 0.1j, -0.2j]), W=np.zeros((2, 2)))
    q = fc_forward(p)
    np.testing.assert_array_equal(q.z, p.eta)


def test_fc_forward_scalar_value():
    q = fc_forward(FCPoint.scalar(1.0, 0.5))
    assert q.z1 == pytest.approx(0.5)  # 1 − ½·1


def test_fc_inverse_at_ball_origin():
    q = JacobiPoint(z=np.array([0.1, 0.2 - 0.3j]), W=np.zeros((2, 2)))
    p = fc_inverse(q)
    np.testing.assert_array_equal(p.eta, q.z)


def test_fc_inverse_scalar_value():
    # η − ½η̄ = ½ with η real gives η = 1
    p = fc_inverse(JacobiPoint.scalar(0.5, 0.5))
    assert p.eta1 == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fc_round_trip(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        p = random_fc_point(rng, n)
        back = fc_inverse(fc_forward(p))
        assert np.max(np.abs(back.eta - p.eta)) < ROUND_TRIP_TOL
        q = fc_forward(back)
        z0 = fc_forward(p).z
        assert np.max(np.abs(q.z - z0)) < ROUND_TRIP_TOL


# --- disk parametrization ------------------------------------------------------


def test_disk_param_origin():
    w, rho = disk_param(0)
    assert w == 0 and rho == 0.0


def test_disk_param_unit_argument():
    w, rho = disk_param(1.0)
    assert w == pytest.approx(np.tanh(1.0), abs=1e-15)
    assert rho == pytest.approx(np.log(1.0 - np.tanh(1.0) ** 2), abs=1e-15)


@seed(9)
@settings(max_examples=60)
@given(
    r=st.floats(min_value=1e-6, max_value=20.0),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_disk_param_inside_disk_and_arg_preserving(r, phi):
    zc = r * np.exp(1j * phi)
    w, rho = disk_param(zc)
    assert abs(w) < 1.0
    assert rho <= 0.0
    assert np.angle(w) == pytest.approx(np.angle(zc), abs=1e-9)


def test_disk_param_monotone_in_modulus():
    radii = np.linspace(0.1, 12.0, 30)
    mods = [abs(disk_param(r)[0]) for r in radii]
    assert all(a < b for a, b in zip(mods, mods[1:]))


# --- coherent-state overlap and metric -------------------------------------------


def test_overlap_log_vacuum():
    assert overlap_log(JacobiPoint.scalar(0, 0), BargmannIndex(1.0)) == pytest.approx(0.0)


def test_overlap_log_squeezed_vacuum():
    val = overlap_log(JacobiPoint.scalar(0, 0.5), BargmannIndex(1.0))
    assert val == pytest.approx(-2.0 * np.log(0.75), abs=1e-14)


def test_overlap_exponent_two_forms_agree():
    """The z-chart exponent equals 2|η|² − w̄η² − wη̄² halved under z = η − wη̄."""
    rng = np.random.default_rng(21)
    k = BargmannIndex(0.25)
    for _ in range(50):
        eta = complex(rng.normal(), rng.normal())
        w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if abs(w) >= 0.85:
            continue
        z = eta - w * eta.conjugate()
        got = overlap_log(JacobiPoint.scalar(z, w), k)
        # direct transcription: 2F = 2ηη̄ − w̄η² − wη̄²
        f_eta = 0.5 * (2.0 * abs(eta) ** 2 - w.conjugate() * eta**2 - w * eta.conjugate() ** 2)
        expected = -2.0 * k.k * np.log(1.0 - abs(w) ** 2) + f_eta.real
        assert abs(f_eta.imag) < 1e-12
        assert got == pytest.approx(expected, abs=1e-12)


def test_kahler_metric_origin():
    g = kahler_metric(JacobiPoint.scalar(0, 0), BargmannIndex(1.0))
    assert g.shape == (2, 2)
    assert g[0, 0].real == pytest.approx(1.0, abs=1e-6)


def test_kahler_metric_hermitian_and_positive():
    rng = np.random.default_rng(33)
    k = BargmannIndex(1.0)
    for _ in range(10):
        z = complex(rng.normal(), rng.normal()) * 0.5
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        g = kahler_metric(JacobiPoint.scalar(z, w), k)
        assert np.max(np.abs(g - g.conj().T)) < 1e-8
        assert np.min(np.linalg.eigvalsh(0.5 * (g + g.conj().T))) > 0.0


def test_kahler_metric_positive_on_interior_grid():
    k = BargmannIndex(1.0)
    for u in np.linspace(-0.45, 0.45, 10):
        for x in np.linspace(-0.9, 0.9, 10):
            g = kahler_metric(JacobiPoint.scalar(complex(x, -x / 3), complex(u, u / 2)), k)
            assert np.min(np.linalg.eigvalsh(0.5 * (g + g.conj().T))) > 0.0


def test_kahler_metric_refuses_near_boundary():
    with pytest.raises(ValueError):
        kahler_metric(JacobiPoint.scalar(0, 0.9999999), BargmannIndex(1.0))


# --- membership and validation ----------------------------------------------------


def test_ball_membership_origin():
    m = ball_membership(np.zeros((2, 2)))
    assert m.ok


def test_ball_membership_boundary_scalar():
    assert not ball_membership(np.array([[1.0]])).ok


def test_ball_membership_diagonal():
    m = ball_membership(np.diag([0.9, 0.9]).astype(complex))
    assert m.ok
    assert m.margin == pytest.approx(0.19, abs=1e-12)


def test_ball_membership_flags_asymmetry():
    m = ball_membership(np.array([[0.0, 0.5], [-0.5, 0.0]]))
    assert not m.ok


def test_ball_point_validation():
    with pytest.raises(ValueError):
        BallPoint(W=np.array([[0.0, 0.3], [0.1, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        BallPoint(W=np.array([[1.0]]))  # boundary
    p = BallPoint.from_scalar(0.3 + 0.4j)
    assert p.margin == pytest.approx(0.75, abs=1e-12)
    assert p.scalar() == 0.3 + 0.4j


@pytest.mark.parametrize("W", [
    pytest.param(np.array([[np.nan]]), id="n1-nan"),
    pytest.param(np.array([[complex(0.1, np.nan)]]), id="n1-nan-imag"),
    pytest.param(np.array([[np.inf]]), id="n1-inf"),
    pytest.param(np.array([[0.1, np.nan], [np.nan, 0.2]]), id="n2-offdiagonal-nan"),
    pytest.param(np.array([[0.1, 0.0], [0.0, np.nan]]), id="n2-diagonal-nan"),
])
def test_ball_point_rejects_a_non_finite_w(W):
    with pytest.raises(ValueError, match="W must be finite"):
        BallPoint(W=W)


def _eigvalsh_margin(W):
    n = W.shape[0]
    return float(np.linalg.eigvalsh(np.eye(n) - W @ W.conj())[0].real)


def test_ball_margin_scalar_branch_is_eigvalsh_bit_for_bit():
    rng = np.random.default_rng(20140324)
    radius = np.concatenate([rng.uniform(0.0, 1.2, 5000), 10.0 ** rng.uniform(-200, 2, 5000)])
    ws = list(radius * np.exp(2j * np.pi * rng.uniform(size=radius.size)))
    ws += [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(-np.inf, 0.0),
           complex(0.0, np.inf), complex(np.inf, -np.inf), 1e200, 1e200j, complex(-1e200, 1e200),
           0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1j]
    with np.errstate(all="ignore"):
        for w in ws:
            W = np.array([[w]], dtype=complex)
            want, got = _eigvalsh_margin(W), geometry._ball_margin(W)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), w


def test_disk_point_validation():
    with pytest.raises(ValueError):
        DiskPoint(w=1.0 + 0j)
    assert DiskPoint(w=0.5j).w == 0.5j


def test_bargmann_index():
    with pytest.raises(ValueError):
        BargmannIndex(0.0)
    with pytest.raises(ValueError):
        BargmannIndex(-1.0)
    assert BargmannIndex(1.0).is_discrete_series
    assert BargmannIndex(1.5).is_discrete_series
    assert not BargmannIndex(0.25).is_discrete_series
    assert not BargmannIndex(0.5).is_discrete_series  # 2k = 1 < 2


def test_point_json_tags():
    assert point_to_json(DiskPoint(w=0.1 + 0.2j))["chart"] == "disk"
    assert point_to_json(JacobiPoint.scalar(0.1, 0.2))["chart"] == "product"
    obj = point_to_json(FCPoint.scalar(0.1 + 0.3j, 0.2))
    assert obj["chart"] == "fc"
    assert obj["eta"] == [[0.1, 0.3]]
