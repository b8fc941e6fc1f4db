import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import assert_equal_up_to_global_phase, circular_diff, compose
from sagnacsim import (
    NonDiagonalError,
    hwp,
    phase_shifter,
    qwp,
    relative_phase,
)
from sagnacsim.jones import _QWP_IN, _QWP_OUT


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHwp:
    def test_hwp0(self):
        assert_equal_up_to_global_phase(hwp(0.0), np.diag([1.0, -1.0]))

    def test_hwp_22_5_rotates_h_to_diagonal(self):
        out = hwp(np.pi / 8) @ np.array([1.0, 0.0])
        assert_equal_up_to_global_phase(out, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_hwp_22_5_sends_v_to_antidiagonal(self):
        out = hwp(np.pi / 8) @ np.array([0.0, 1.0])
        assert_equal_up_to_global_phase(out, np.array([1.0, -1.0]) / np.sqrt(2.0))

    @pytest.mark.parametrize("angle", np.linspace(0.0, np.pi, 9))
    def test_involution(self, angle):
        assert_equal_up_to_global_phase(hwp(angle) @ hwp(angle), np.eye(2))

    @pytest.mark.parametrize("theta", np.linspace(0.0, 1.5, 7))
    def test_pair_is_rotation(self, theta):
        # two half wave plates offset by theta rotate the plane by 2*theta
        phi = 0.4
        assert_equal_up_to_global_phase(hwp(phi + theta) @ hwp(phi), rotation(2.0 * theta))


class TestQwp:
    def test_qwp0_anchor(self):
        assert_equal_up_to_global_phase(qwp(0.0), np.diag([1.0, 1.0j]))

    def test_two_qwp_make_hwp(self):
        assert_equal_up_to_global_phase(qwp(np.pi / 4) @ qwp(np.pi / 4), hwp(np.pi / 4))

    @pytest.mark.parametrize("angle", np.linspace(-np.pi, np.pi, 21))
    def test_unitarity(self, angle):
        m = qwp(angle)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


class TestCompose:
    def test_identity(self):
        np.testing.assert_allclose(compose([np.eye(2)]), np.eye(2))

    def test_ordering_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_unitary(rng), random_unitary(rng)
            np.testing.assert_allclose(compose([a, b]), b @ a, atol=1e-12)

    def test_four_unitaries_stay_unitary(self):
        rng = np.random.default_rng(4)
        mats = [random_unitary(rng) for _ in range(4)]
        m = compose(mats)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])


class TestPhaseShifter:
    def test_theta_zero_is_identity(self):
        assert_equal_up_to_global_phase(phase_shifter(0.7, 0.0), np.eye(2))

    def test_pi_over_8_gives_quarter_turn(self):
        assert relative_phase(phase_shifter(0.0, np.pi / 8)) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_independent_of_phi(self):
        for phi in np.linspace(0.0, np.pi, 7):
            for theta in (0.1, 0.2, 0.5):
                rp = relative_phase(phase_shifter(phi, theta))
                assert circular_diff(rp, 4.0 * theta) < 1e-12

    def test_four_theta_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            phi = rng.uniform(0.0, np.pi)
            theta = rng.uniform(0.0, np.pi)
            rp = relative_phase(phase_shifter(phi, theta))
            assert circular_diff(rp, 4.0 * theta) < 1e-12

    def test_period_pi_over_2(self):
        for theta in (0.12, 0.31, 0.77):
            a = relative_phase(phase_shifter(0.25, theta))
            b = relative_phase(phase_shifter(0.25, theta + np.pi / 2))
            assert circular_diff(a, b) < 1e-12

    def test_unitary(self):
        m = phase_shifter(0.3, 0.9)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


class TestFixedPlates:
    """The shifter reuses its two fixed plates and still equals the composed stack."""

    ANGLES = st.floats(-20.0, 20.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ANGLES, ANGLES)
    @example(0.0, 0.0)
    @example(-0.0, 0.0)
    @example(-1.3, -2.9)
    @example(0.4, -0.25)
    @example(7.5, 13.0)
    @example(2.0 * np.pi, 4.0 * np.pi + 0.1)
    def test_equals_composed_stack_bit_for_bit(self, phi, theta):
        stack = compose([qwp(-np.pi / 4.0), hwp(phi), hwp(phi + theta), qwp(np.pi / 4.0)])
        assert phase_shifter(phi, theta).tobytes() == stack.tobytes()

    def test_plates_are_read_only(self):
        for plate in (_QWP_IN, _QWP_OUT):
            assert not plate.flags.writeable
            with pytest.raises(ValueError):
                plate[0, 0] = 0.0

    def test_returned_matrix_is_a_fresh_array(self):
        first = phase_shifter(0.3, 0.9)
        expected = first.copy()
        assert first.flags.writeable
        first[:] = 0.0
        assert phase_shifter(0.3, 0.9).tobytes() == expected.tobytes()


class TestRelativePhase:
    def test_explicit_diagonal(self):
        assert relative_phase(np.diag([1.0, np.exp(1j * np.pi)])) == pytest.approx(np.pi)

    def test_identity(self):
        assert relative_phase(np.eye(2)) == pytest.approx(0.0)

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.5])
    def test_composed_stack(self, theta):
        rp = relative_phase(phase_shifter(0.3, theta))
        assert circular_diff(rp, 4.0 * theta) < 1e-12

    def test_rejects_non_diagonal(self):
        with pytest.raises(NonDiagonalError):
            relative_phase(hwp(np.pi / 8))

    @pytest.mark.parametrize("theta", [np.pi / 2, np.pi])
    def test_full_turn_folds_below_two_pi(self, theta):
        # 4 theta is a whole number of turns, so the phase is 0 up to rounding; a tiny
        # negative difference must fold to 0, not round up to 2 pi
        phases = [relative_phase(phase_shifter(phi, theta))
                  for phi in np.linspace(0.0, np.pi, 2001)]
        assert all(0.0 <= rp < 2.0 * np.pi for rp in phases)
        assert relative_phase(phase_shifter(np.pi / 2000, theta)) == 0.0
