import json

import numpy as np
import pytest

from _helpers import DiagonalPhaseOp, apply_signal_phases, i_concurrence, inner_product
from sagnacsim import (
    BipartiteQuditState,
    ConfigError,
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
    make_antisymmetric_mes,
)


class TestMakeAntisymmetricMes:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_antidiagonal_support(self, d):
        s = make_antisymmetric_mes(d)
        expected = np.zeros((d, d), dtype=complex)
        expected[np.arange(d), d - 1 - np.arange(d)] = 1.0 / np.sqrt(d)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)

    def test_d3_amplitudes(self):
        s = make_antisymmetric_mes(3)
        a = s.amplitudes
        third = 1.0 / np.sqrt(3.0)
        assert a[0, 2] == pytest.approx(third)
        assert a[1, 1] == pytest.approx(third)
        assert a[2, 0] == pytest.approx(third)
        assert np.count_nonzero(a) == 3

    def test_d2_amplitudes(self):
        a = make_antisymmetric_mes(2).amplitudes
        assert a[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))
        assert a[1, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert a[0, 0] == a[1, 1] == 0.0

    def test_d4_amplitudes(self):
        a = make_antisymmetric_mes(4).amplitudes
        for m in range(4):
            assert a[m, 3 - m] == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_invalid_dimension(self, d):
        with pytest.raises(InvalidDimensionError):
            make_antisymmetric_mes(d)

    def test_one_shared_immutable_state_per_dimension(self):
        mes = make_antisymmetric_mes(3)
        assert make_antisymmetric_mes(3) is mes
        assert not mes.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            mes.amplitudes[0, 2] = 0.0
        # 3.0 == 3 with the same hash; the shared state must not answer for it
        with pytest.raises(TypeError):
            make_antisymmetric_mes(3.0)
        same = make_antisymmetric_mes(np.int64(3))
        assert same.dim == 3 and type(same.dim) is int
        assert np.array_equal(same.amplitudes, mes.amplitudes)


class TestStateValidation:
    def test_rejects_unnormalized(self):
        amps = np.ones((2, 2), dtype=complex)
        with pytest.raises(NormalizationError):
            BipartiteQuditState(2, amps)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            BipartiteQuditState(3, np.eye(2) / np.sqrt(2.0))

    def test_amplitudes_read_only(self):
        s = make_antisymmetric_mes(2)
        with pytest.raises(ValueError):
            s.amplitudes[0, 0] = 1.0

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        amps /= np.linalg.norm(amps)
        s = BipartiteQuditState(3, amps)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(s.to_json_dict()))
        loaded = BipartiteQuditState.from_json_dict(json.loads(path.read_text()))
        np.testing.assert_allclose(loaded.amplitudes, s.amplitudes, atol=1e-15)
        assert loaded.dim == 3

    @pytest.mark.parametrize("dim", [2.0, True, "2", None])
    def test_rejects_non_integer_dim(self, dim):
        # a float dim would be written as "dim": 2.0, which from_json_dict refuses
        with pytest.raises(ConfigError, match="state dim"):
            BipartiteQuditState(dim, np.eye(2) / np.sqrt(2.0))

    def test_numpy_integer_dim_stored_as_int(self):
        s = BipartiteQuditState(np.int64(2), np.eye(2) / np.sqrt(2.0))
        assert type(s.dim) is int
        assert json.loads(json.dumps(s.to_json_dict()))["dim"] == 2


class TestIConcurrence:
    def test_mes3_value(self):
        # oracle: explicit reduced density matrix of the d=3 MES is I/3
        s = make_antisymmetric_mes(3)
        rho = s.amplitudes @ s.amplitudes.conj().T
        np.testing.assert_allclose(rho, np.eye(3) / 3.0, atol=1e-15)
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert i_concurrence(s) == pytest.approx(np.sqrt(2.0 * (1.0 - purity)), abs=1e-12)
        assert i_concurrence(s) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)

    def test_product_state_zero(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.0
        assert i_concurrence(BipartiteQuditState(2, amps)) == pytest.approx(0.0, abs=1e-12)

    def test_mes2_value(self):
        s = make_antisymmetric_mes(2)
        rho = s.amplitudes @ s.amplitudes.conj().T
        np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=1e-15)
        assert i_concurrence(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_mes_reaches_maximum(self, d):
        assert abs(i_concurrence(make_antisymmetric_mes(d)) - np.sqrt(2.0 * (d - 1) / d)) < 1e-12


class TestApplySignalPhases:
    def test_identity_phases(self):
        s = make_antisymmetric_mes(3)
        out = apply_signal_phases(s, DiagonalPhaseOp(3, (0.0, 0.0, 0.0)))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_global_sign_d2(self):
        s = make_antisymmetric_mes(2)
        out = apply_signal_phases(s, DiagonalPhaseOp(2, (np.pi, -np.pi)))
        np.testing.assert_allclose(out.amplitudes, -s.amplitudes, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_signal_phases(make_antisymmetric_mes(3), DiagonalPhaseOp(2, (0.1, -0.1)))

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            amps /= np.linalg.norm(amps)
            s = BipartiteQuditState(d, amps)
            op = DiagonalPhaseOp(d, tuple(rng.uniform(-np.pi, np.pi, size=d)))
            out = apply_signal_phases(s, op)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_concurrence_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            amps /= np.linalg.norm(amps)
            s = BipartiteQuditState(d, amps)
            op = DiagonalPhaseOp(d, tuple(rng.uniform(-np.pi, np.pi, size=d)))
            assert abs(i_concurrence(apply_signal_phases(s, op)) - i_concurrence(s)) < 1e-12


class TestInnerProduct:
    def test_self_overlap(self):
        s = make_antisymmetric_mes(4)
        assert inner_product(s, s) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_mes3_uniform_phase(self):
        # all three phases congruent to 2*pi/3 while keeping a zero sum
        s = make_antisymmetric_mes(3)
        op = DiagonalPhaseOp(3, (2 * np.pi / 3, 2 * np.pi / 3, -4 * np.pi / 3))
        overlap = inner_product(s, apply_signal_phases(s, op))
        assert overlap == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-12)

    def test_orthogonal_basis_states(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((2, 2), dtype=complex)
        b[1, 1] = 1.0
        assert inner_product(BipartiteQuditState(2, a), BipartiteQuditState(2, b)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(make_antisymmetric_mes(2), make_antisymmetric_mes(3))


class TestDiagonalPhaseOp:
    def test_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            DiagonalPhaseOp(3, (0.0, 0.0))
