import numpy as np
import pytest

from quditpulse.model import (
    GateSpec,
    QuditSystem,
    drift_hamiltonian,
    embed_isometry,
    embed_target,
    gate,
    lowering_operator,
    transmon_system,
)
from reference import control_operators

TWO_PI = 2 * np.pi


class TestLoweringOperator:
    def test_qubit(self):
        assert np.array_equal(lowering_operator(2), [[0, 1], [0, 0]])

    def test_qutrit_superdiagonal(self):
        a = lowering_operator(3)
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_number_operator_diagonal(self):
        a = lowering_operator(4)
        num = a.conj().T @ a
        assert np.allclose(np.diag(num), [0, 1, 2, 3])
        assert np.allclose(num - np.diag(np.diag(num)), 0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            lowering_operator(1)


class TestDriftHamiltonian:
    def test_single_qudit_diagonal(self):
        sys = transmon_system(num_qudits=1, d=4, guard=0, omega_rot_ghz=4.914)
        h = drift_hamiltonian(sys)
        xi = sys.xi[0]
        assert np.allclose(np.diag(h), [0, 0, xi, 3 * xi])
        assert np.allclose(h - np.diag(np.diag(h)), 0)

    def test_two_level_zero(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        assert np.allclose(drift_hamiltonian(sys), 0)

    def test_two_qudit_coupling_block(self):
        sys = transmon_system(num_qudits=2, d=2, guard=2)
        h = drift_hamiltonian(sys)
        n = sys.levels
        # |01> and |10> exchange through the coupling term
        assert h[1 * n + 0, 0 * n + 1] == pytest.approx(TWO_PI * 0.0038)
        assert h[0 * n + 1, 1 * n + 0] == pytest.approx(TWO_PI * 0.0038)

    @pytest.mark.parametrize("num_qudits,d,guard", [(1, 3, 2), (2, 2, 1), (2, 3, 2)])
    def test_hermitian(self, num_qudits, d, guard):
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=guard)
        h = drift_hamiltonian(sys)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


class TestControlOperators:
    def test_qubit_pauli_pair(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0)
        (a_op, b_op), = control_operators(sys)
        assert np.allclose(a_op, [[0, 1], [1, 0]])
        assert np.allclose(b_op, [[0, 1j], [-1j, 0]])  # minus Pauli Y

    def test_two_qutrit_dimensions(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        pairs = control_operators(sys)
        assert len(pairs) == 2
        assert all(m.shape == (25, 25) for pair in pairs for m in pair)

    def test_hermitian(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        for a_op, b_op in control_operators(sys):
            assert np.max(np.abs(a_op - a_op.conj().T)) < 1e-14
            assert np.max(np.abs(b_op - b_op.conj().T)) < 1e-14


class TestGateLibrary:
    def test_increment_wraps(self):
        x3 = gate("X_d", 3).matrix
        assert np.allclose(x3 @ np.eye(3)[:, 2], np.eye(3)[:, 0])
        assert np.allclose(x3 @ np.eye(3)[:, 0], np.eye(3)[:, 1])

    def test_t_gate_phase(self):
        t4 = gate("T_d", 4).matrix
        assert t4[2, 2] == pytest.approx(np.exp(1j * np.pi / 4))

    def test_swap_action(self):
        sw = gate("SWAP_d", 3).matrix
        v12 = np.kron(np.eye(3)[:, 1], np.eye(3)[:, 2])
        v21 = np.kron(np.eye(3)[:, 2], np.eye(3)[:, 1])
        assert np.allclose(sw @ v12, v21)

    def test_cnot_action(self):
        cn = gate("CNOT", 2).matrix
        basis = np.eye(4)
        # |10> -> |11>, |11> -> |10>, others fixed
        assert np.allclose(cn @ basis[:, 2], basis[:, 3])
        assert np.allclose(cn @ basis[:, 3], basis[:, 2])
        assert np.allclose(cn @ basis[:, 0], basis[:, 0])

    def test_swap2_matches_swap_d(self):
        assert np.allclose(gate("SWAP2").matrix, gate("SWAP_d", 2).matrix)

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate("Y_d", 2)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            gate("X_d", 1)
        with pytest.raises(ValueError):
            gate("CNOT", 3)


class TestEmbedding:
    def test_identity_padding(self):
        sys = transmon_system(num_qudits=1, d=2, guard=1)
        spec = GateSpec("I", 2, np.eye(2))
        emb = embed_target(spec, sys)
        assert np.allclose(emb, [[1, 0], [0, 1], [0, 0]])

    def test_two_qudit_shape(self):
        sys = transmon_system(num_qudits=2, d=2, guard=2)
        emb = embed_target(GateSpec("I", 4, np.eye(4)), sys)
        assert emb.shape == (16, 4)

    def test_column_norms(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        emb = embed_target(gate("SWAP_d", 3), sys)
        assert np.allclose(np.linalg.norm(emb, axis=0), 1.0)

    def test_guard_rows_zero(self):
        sys = transmon_system(num_qudits=2, d=2, guard=1)
        emb = embed_target(gate("CNOT", 2), sys)
        assert np.allclose(emb[sys.guard_mask()], 0)

    def test_dimension_mismatch(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        with pytest.raises(ValueError):
            embed_target(gate("X_d", 2), sys)

    def test_index_order_row_major(self):
        sys = transmon_system(num_qudits=2, d=2, guard=1)
        emb = embed_isometry(sys)
        n = sys.levels
        for i in range(2):
            for j in range(2):
                assert emb[i * n + j, i * 2 + j] == 1.0


class TestQuditSystem:
    def test_dimensions(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        assert sys.levels == 5
        assert sys.dim_total == 25
        assert sys.dim_essential == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            QuditSystem(3, 2, 2, (1.0,), (1.0,), 0.0, 1.0)
        with pytest.raises(ValueError, match="need at least 2 essential levels"):
            transmon_system(num_qudits=1, d=1)

    @pytest.mark.parametrize("key", ["omega_ghz", "xi_ghz"])
    def test_short_frequency_list_names_the_key(self, key):
        with pytest.raises(ValueError, match=key):
            transmon_system(num_qudits=1, d=2, **{key: []})
        with pytest.raises(ValueError, match=key):
            transmon_system(num_qudits=2, d=2, **{key: (5.0,)})

    def test_gate_spec_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            GateSpec("bad", 2, np.array([[1, 0], [0, 2]]))
