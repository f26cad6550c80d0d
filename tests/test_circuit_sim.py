import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from pade_lab.circuit_sim import (
    _BLOCK_ENTRIES,
    THETA_1,
    THETA_2,
    UNITARITY_TOL,
    ZETA,
    BlockEncodingUnitary,
    CircuitSpec,
    GateOp,
    Register,
    add_matrix,
    build_l_encoding,
    hermitian_encoding,
    primitive_encodings,
    primitive_targets,
    realize_dense,
    verify_block_encoding,
    zero_matrix_encoding,
)
from pade_lab.errors import CompositionError, LayoutError, ShapeError, SizeError
from pade_lab.error_bounds import make_params
from pade_lab.pade_core import OdeProblem, pade_coefficients
from pade_lab.system_builder import build_pade_system


def random_hermitian_unit(seed, n=2, shrink=1.3):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (raw + raw.conj().T) / 2
    return a / (shrink * np.linalg.norm(a, 2))


def identity_encoding(n_qubits):
    dim = 2**n_qubits
    return BlockEncodingUnitary(np.eye(dim, dtype=complex), 1.0, 0, dim)


def build_target(a, h, m, k):
    n = a.shape[0]
    problem = OdeProblem(matrix_a=a, vec_b=np.zeros(n), vec_x0=np.zeros(n),
                         horizon=h * m)
    params = make_params(m, k, m * (k + 1), h * m, "pade")
    return build_pade_system(problem, params).dense()


class TestGateMachinery:
    def test_add_wraparound(self):
        add = add_matrix(3)
        state = np.zeros(8)
        state[5] = 1.0
        assert np.argmax(add @ state) == 6
        assert np.allclose(np.linalg.matrix_power(add, 8), np.eye(8))
        assert not np.allclose(np.linalg.matrix_power(add, 4), np.eye(8))

    def test_layout_validation(self):
        spec = CircuitSpec(registers=(Register("a", 1, True),),
                           gates=[GateOp("X", (3,))])
        with pytest.raises(LayoutError):
            realize_dense(spec)
        spec = CircuitSpec(registers=(Register("a", 2, True),),
                           gates=[GateOp("UCRY", (0,), angles=(0.1,), selector=(1,))])
        with pytest.raises(LayoutError):
            realize_dense(spec)

    def test_budget(self):
        spec = CircuitSpec(registers=(Register("big", 13, False),))
        with pytest.raises(SizeError):
            realize_dense(spec)


def random_stage(seed, nq):
    """Seeded gate list over nq wires: H, X, controlled RY and one UCRY."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(3 * nq):
        wire = int(rng.integers(nq))
        kind = rng.choice(["H", "X", "RY"])
        others = [w for w in range(nq) if w != wire]
        controls = ((int(rng.choice(others)), int(rng.integers(2))),) if others else ()
        gates.append(GateOp(str(kind), (wire,), controls=controls,
                            angle=float(rng.uniform(0, 2 * math.pi)) if kind == "RY" else None))
    if nq > 1:
        gates.append(GateOp("UCRY", (0,), angles=tuple(rng.uniform(0, 2 * math.pi, 2)),
                            selector=(nq - 1,)))
    return CircuitSpec(registers=(Register("n", nq, False),), gates=gates)


def svd_defect(u):
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))


def kron_gate(nq, gate, targets, controls=()):
    """2^nq x 2^nq operator of ``gate`` on ``targets`` (first target most
    significant) under ``controls``, as a sum of Kronecker products of 2x2
    factors: sum_ab gate[a, b] (x)_i |a_i><b_i| on the targets times the
    control projector, plus the identity off that projector."""
    unit = np.eye(2)
    projector = {w: np.outer(unit[v], unit[v]) for w, v in controls}

    def expand(factors):
        out = sp.identity(1, format="csr")
        for w in range(nq):
            out = sp.kron(out, sp.csr_matrix(factors.get(w, unit)), format="csr")
        return out

    total = sp.identity(2**nq, format="csr") - expand(projector)
    width = len(targets)
    for a in range(2**width):
        for b in range(2**width):
            if gate[a, b] == 0:
                continue
            factors = dict(projector)
            for i, w in enumerate(targets):
                bit_a, bit_b = (a >> (width - 1 - i)) & 1, (b >> (width - 1 - i)) & 1
                factors[w] = np.outer(unit[bit_a], unit[bit_b])
            total = total + gate[a, b] * expand(factors)
    return total


def oracle_ry(angle):
    return np.array([[math.cos(angle / 2), -math.sin(angle / 2)],
                     [math.sin(angle / 2), math.cos(angle / 2)]])


ORACLE_FIXED = {"H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
                "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1]),
                "NEGZ": np.diag([-1, 1])}


def oracle_matrix(g, opaques):
    """Gate matrix of one GateOp over (selector wires +) target wires."""
    if g.kind in ORACLE_FIXED:
        return ORACLE_FIXED[g.kind]
    if g.kind == "RY":
        return oracle_ry(g.angle)
    if g.kind == "ADD":
        return np.roll(np.eye(2 ** len(g.targets)), 1, axis=0)
    if g.kind == "UCRY":  # block diagonal over the selector value, selector most significant
        return sla.block_diag(*[oracle_ry(t) for t in g.angles])
    return opaques[g.label]


def random_mixed_stage(seed, nq):
    """Seeded gate list with every gate kind, controlled and not."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    opaques = {"V": np.linalg.qr(raw)[0]}
    gates = []
    for i in range(6 * nq):
        kind = ["H", "X", "RY", "UCRY", "OPAQUE", "ADD", "Z", "NEGZ"][i % 8]
        width = {"UCRY": 3, "OPAQUE": 2, "ADD": 3}.get(kind, 1)
        wires = [int(w) for w in rng.permutation(nq)[:width + 2]]
        used, spare = wires[:width], wires[width:]
        controls = tuple((w, int(rng.integers(2))) for w in spare[:int(rng.integers(3))])
        if kind == "UCRY":
            gates.append(GateOp("UCRY", (used[2],), controls, selector=tuple(used[:2]),
                                angles=tuple(rng.uniform(0, 2 * math.pi, 4))))
        else:
            gates.append(GateOp(kind, tuple(used), controls,
                                angle=float(rng.uniform(0, 2 * math.pi)) if kind == "RY" else None,
                                label="V" if kind == "OPAQUE" else None))
    return CircuitSpec(registers=(Register("n", nq, False),), gates=gates, opaques=opaques)


class TestRealizeBlocks:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_column_blocks_match_kron_oracle(self, seed):
        nq = 10
        assert 4**nq > _BLOCK_ENTRIES  # more than one column block
        spec = random_mixed_stage(seed, nq)
        want = np.eye(2**nq, dtype=complex)
        for g in spec.gates:
            wires = g.selector + g.targets
            want = kron_gate(nq, oracle_matrix(g, spec.opaques), wires, g.controls) @ want
        got = realize_dense(spec)
        assert np.abs(got - want).max() <= 1e-13

    def test_l_encoding_memory(self):
        # the 11-qubit L of the C09 grid: n = 2, m = 2, k + 1 = 4, alpha h < 1
        enc = hermitian_encoding(random_hermitian_unit(11))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            full = build_l_encoding(enc, 1.0, 2, 3)
            assert full.unitarity_defect() <= UNITARITY_TOL
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.unitary.shape == (2**11, 2**11)
        assert peak - start <= 1.5 * full.unitary.nbytes


class TestUnitarityCertificate:
    # nq = 10 sums the Frobenius norm over several Gram panels
    @pytest.mark.parametrize("nq", [1, 3, 5, 8, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounds_svd_norm_with_same_verdict(self, seed, nq):
        u = realize_dense(random_stage(seed, nq))
        rng = np.random.default_rng(100 + seed)
        noise = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
        noise /= np.linalg.norm(noise, 2)
        for scale in (0.0, 1e-15, 1e-14, 1e-13, 4e-13, 1e-12, 1e-11):
            enc = BlockEncodingUnitary(u + scale * noise, 1.0, 0, 2**nq)
            exact = svd_defect(enc.unitary)
            defect = enc.unitarity_defect()
            assert defect >= exact * (1.0 - 4 * np.finfo(float).eps)
            assert (defect <= UNITARITY_TOL) == (exact <= UNITARITY_TOL)
            if defect > UNITARITY_TOL:
                assert defect == exact

    @pytest.mark.parametrize("nq", [5, 10])
    def test_panel_sum_is_frobenius_norm(self, nq):
        # U = I + N: E = N + N^H + N^H N has entries in every Gram panel, above
        # and below the diagonal, and a Frobenius norm under the gate
        rng = np.random.default_rng(nq)
        noise = rng.normal(size=(2**nq, 2**nq)) + 1j * rng.normal(size=(2**nq, 2**nq))
        u = np.eye(2**nq) + 1e-13 * noise / np.linalg.norm(noise)
        frobenius = np.linalg.norm(u.conj().T @ u - np.eye(2**nq))
        assert 1e-13 < frobenius <= UNITARITY_TOL
        defect = BlockEncodingUnitary(u, 1.0, 0, 2**nq).unitarity_defect()
        assert defect == pytest.approx(frobenius, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("eps,passes", [(0.9e-12, True), (2e-12, False)])
    def test_frobenius_miss_falls_back_to_exact_norm(self, eps, passes):
        u = np.diag(np.full(16, math.sqrt(1.0 + eps))).astype(complex)
        enc = BlockEncodingUnitary(u, 1.0, 0, 16)
        frobenius = np.linalg.norm(u.conj().T @ u - np.eye(16))
        assert frobenius == pytest.approx(4 * eps, rel=1e-3, abs=0.0)
        assert frobenius > UNITARITY_TOL
        defect = enc.unitarity_defect()
        assert defect == svd_defect(u)
        assert defect == pytest.approx(eps, rel=1e-3, abs=0.0)
        assert (defect <= UNITARITY_TOL) is passes


class TestPrimitives:
    @pytest.mark.parametrize("k,m", [(1, 2), (3, 2), (3, 4), (7, 4)])
    def test_all_targets(self, k, m):
        encs = primitive_encodings(k, m)
        targets = primitive_targets(k, m)
        for name, enc in encs.items():
            residual, ok = verify_block_encoding(enc, targets[name], 1e-13)
            assert ok, f"{name}: residual {residual:.3e}"
            assert enc.unitarity_defect() <= 1e-12
            assert enc.alpha == 1.0 and enc.ancillas == 1

    def test_m1_shape(self):
        enc = primitive_encodings(3, 2)["m1"]
        proj = enc.projection
        assert proj[0, 3] == pytest.approx(0.0, abs=1e-15)  # no wraparound entry
        assert np.allclose(np.diag(proj.real[1:, :-1]), 1.0, atol=1e-14)

    def test_m3_beta_values(self):
        enc = primitive_encodings(1, 2)["m3"]
        beta1 = float(pade_coefficients(1, 1).ratio_beta[0])
        assert beta1 == 0.5
        assert np.allclose(np.diag(enc.projection), [0.0, beta1], atol=1e-14)

    def test_m5_angle(self):
        # cos(theta_0 / 2) = 1 / sqrt(k+1); for k+1 = 4 the angle is 2 pi / 3
        assert 2 * math.acos(1 / math.sqrt(4)) == pytest.approx(2 * math.pi / 3, abs=1e-14)
        enc = primitive_encodings(3, 1)["m5"]
        assert enc.projection[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_power_of_two_required(self):
        with pytest.raises(LayoutError):
            primitive_encodings(2, 2)  # k+1 = 3
        with pytest.raises(LayoutError):
            primitive_encodings(3, 3)  # m = 3


class TestRotationConstants:
    def test_fixed_angles(self):
        assert math.cos(ZETA / 2) == pytest.approx(math.sqrt(6) / 3, abs=1e-15)
        assert math.cos(THETA_1 / 2) == pytest.approx(2 / 3, abs=1e-15)
        assert THETA_2 == pytest.approx(math.pi / 3, abs=1e-15)


class TestStageEncodings:
    def test_one_step_stage(self):
        from pade_lab.circuit_sim import build_w_encoding
        from pade_lab.system_builder import SCHEMES

        a = random_hermitian_unit(11)
        enc = hermitian_encoding(a, alpha=1.0)
        for k in (3, 7):
            stage = build_w_encoding(enc, 1.0, k)
            assert stage.alpha == 3.0 and stage.ancillas == enc.ancillas + 3
            residual, ok = verify_block_encoding(stage, SCHEMES["pade"](k).one_step(a * 1.0),
                                                 1e-12)
            assert ok, residual
            assert stage.unitarity_defect() <= 1e-12

    def test_padding_stage(self):
        from pade_lab.circuit_sim import build_b_encoding, primitive_targets

        targets = primitive_targets(3, 2)
        # a scale above 1 adds the scale wire and multiplies the normalization
        for scale, ancillas in ((1.0, 3), (2.5, 4)):
            stage = build_b_encoding(3, 2, scale)
            assert stage.alpha == 3.0 * scale and stage.ancillas == ancillas
            residual, ok = verify_block_encoding(stage, targets["m4"] + targets["m5"], 1e-12)
            assert ok, residual
            assert stage.unitarity_defect() <= 1e-12

    def test_coupling_stage(self):
        from pade_lab.circuit_sim import build_coupling_encoding, coupling_target
        from pade_lab.system_builder import alternating_signs

        for k, m, scale in ((1, 2, 1.0), (3, 2, 1.0), (3, 1, 1.0), (3, 2, 2.5)):
            stage = build_coupling_encoding(k, m, scale)
            assert stage.alpha == scale and stage.ancillas == (2 if scale == 1.0 else 3)
            target = coupling_target(k, m)
            residual, ok = verify_block_encoding(stage, target, 1e-12)
            assert ok, residual
            assert stage.unitarity_defect() <= 1e-12
            # target shape sanity: signed row enters the slot below each of
            # the first m slots, nothing else
            width = k + 1
            row = alternating_signs(k) / math.sqrt(width)
            for t in range(m):
                block = target[(t + 1) * width: (t + 2) * width, t * width: (t + 1) * width]
                assert np.allclose(block[0], row, atol=1e-15)
            assert np.count_nonzero(target) == m * width


class TestFullEncoding:
    def test_zero_matrix_exact(self):
        enc = zero_matrix_encoding(1)
        target = build_target(np.zeros((2, 2), dtype=complex), 1.0, 2, 1)
        full = build_l_encoding(enc, 1.0, 2, 1)
        residual, ok = verify_block_encoding(full, target, 1e-10)
        assert ok, residual
        assert full.alpha == 4.0
        assert full.ancillas == enc.ancillas + 4  # alpha h = 1 skips the adjust wire

    def test_scaled_step(self):
        # h = 2 with a unit-normalized encoding: alpha' = 8
        a = random_hermitian_unit(3, shrink=1.5)
        enc = hermitian_encoding(a, alpha=1.0)
        target = build_target(a, 2.0, 2, 3)
        full = build_l_encoding(enc, 2.0, 2, 3)
        assert full.alpha == 8.0
        assert full.ancillas == enc.ancillas + 5
        residual, ok = verify_block_encoding(full, target, 1e-10)
        assert ok, residual

    def test_small_alpha_h_adds_adjust_wire(self):
        a = random_hermitian_unit(7)
        enc = hermitian_encoding(a)  # alpha = ||A|| < 1
        assert enc.alpha * 1.0 < 1.0
        target = build_target(a, 1.0, 2, 3)
        full = build_l_encoding(enc, 1.0, 2, 3)
        assert full.alpha == 4.0
        assert full.ancillas == enc.ancillas + 5
        residual, ok = verify_block_encoding(full, target, 1e-10)
        assert ok, residual

    def test_hermitian_encoding_checks_its_input(self):
        a = random_hermitian_unit(5)
        a[0, 1] += 1e-9  # above the relative 1e-12 Hermitian test
        with pytest.raises(CompositionError):
            hermitian_encoding(a)
        with pytest.raises(CompositionError):
            hermitian_encoding(random_hermitian_unit(5), alpha=0.5)  # ||A|| = 1/1.3
        with pytest.raises(ShapeError):
            hermitian_encoding(np.zeros((0, 0)))  # no qubit register holds dimension 0

    def test_wrong_alpha_residual(self):
        enc = identity_encoding(2)
        wrong = BlockEncodingUnitary(enc.unitary, 2.0, 0, 4)
        residual, ok = verify_block_encoding(wrong, np.eye(4), 1e-10)
        assert not ok
        assert residual == pytest.approx(1.0, abs=1e-14)  # |alpha - 1| ||I||

    def test_budget_guard(self):
        enc = zero_matrix_encoding(2)
        with pytest.raises(SizeError):
            build_l_encoding(enc, 1.0, 4, 7)

    def test_padding_constraint_is_structural(self):
        # p = m (k+1) is baked into the index register: one extra top wire
        enc = zero_matrix_encoding(0)
        full = build_l_encoding(enc, 1.0, 2, 1)
        assert full.target_dim == 2 * 2 * 2  # 2 m (k+1) n
