import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from pade_lab.circuit_sim import (
    QUBIT_BUDGET,
    THETA_1,
    THETA_2,
    UNITARITY_TOL,
    ZETA,
    BlockEncodingUnitary,
    CircuitSpec,
    GateOp,
    Register,
    _dense_ops,
    _encode,
    _gram_defect,
    add_matrix,
    build_b_encoding,
    build_coupling_encoding,
    build_l_encoding,
    build_w_encoding,
    coupling_target,
    hermitian_encoding,
    primitive_encodings,
    primitive_targets,
    realize_dense,
    ry_matrix,
    ucry_matrix,
    verify_block_encoding,
    zero_matrix_encoding,
)
from pade_lab import circuit_sim
from pade_lab.errors import (CompositionError, LayoutError, MagnitudeError, ShapeError,
                             SizeError)
from pade_lab.error_bounds import make_params
from pade_lab.pade_core import OdeProblem, pade_coefficients
from pade_lab.system_builder import SCHEMES, build_pade_system, dense_patterns

from oracles import fresh_columns, fresh_unitarity_defect, whole_unitary_defect


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
        spec = CircuitSpec(registers=(Register("n", 1, False), Register("a", 1, True)))
        with pytest.raises(LayoutError):  # the target columns are those of the top wires
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


def kron_product(spec):
    """The gate list of ``spec`` multiplied out from ``kron_gate`` operators."""
    nq = spec.total_qubits
    want = np.eye(2**nq, dtype=complex)
    for g in spec.gates:
        want = kron_gate(nq, oracle_matrix(g, spec.opaques), g.selector + g.targets,
                         g.controls) @ want
    return want


class TestRealizeBlocks:
    def test_one_op_per_gate(self):
        spec = random_mixed_stage(0, 8)
        ops = _dense_ops(spec)
        assert len(ops) == len(spec.gates)
        for g, (gate, wires, controls) in zip(spec.gates, ops):
            assert wires == g.selector + g.targets and controls == g.controls
            assert gate.shape == (2 ** len(wires),) * 2
            assert np.array_equal(gate, oracle_matrix(g, spec.opaques))

    @pytest.mark.parametrize("angles", [(0.3,), (0.0, -0.0, math.pi, 2 * math.pi),
                                        tuple(np.random.default_rng(3).uniform(-7, 7, 16))])
    def test_ucry_fill_is_block_diag(self, angles):
        # the rotations written into zeros are scipy's block_diag bit for bit,
        # signed zeros included
        got, want = ucry_matrix(angles), sla.block_diag(*map(ry_matrix, angles))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", [pytest.param(seed, marks=pytest.mark.slow)
                                      for seed in (0, 1)])
    def test_column_blocks_match_kron_oracle(self, seed):
        # nq = 10: a whole U of 2^10 columns, on the one dense path
        spec = random_mixed_stage(seed, 10)
        assert np.abs(realize_dense(spec) - kron_product(spec)).max() <= 1e-13

    def test_dense_path_matches_kron_oracle(self):
        spec = random_mixed_stage(0, 8)
        want = kron_product(spec)
        got = realize_dense(spec)
        assert got.shape == (2**8, 2**8)
        assert np.abs(got - want).max() <= 1e-13
        # the same gates with the top three wires as ancillas: only the 2^5
        # columns whose input holds them at |0> are realized
        split = CircuitSpec(registers=(Register("a", 3, True), Register("n", 5, False)),
                            gates=spec.gates, opaques=spec.opaques)
        got = realize_dense(split)
        assert got.shape == (2**8, 2**5)
        assert np.abs(got - want[:, :2**5]).max() <= 1e-13

    def test_l_encoding_memory(self):
        # the 11-qubit L of the C09 grid: n = 2, m = 2, k + 1 = 4, alpha h < 1
        enc = hermitian_encoding(random_hermitian_unit(11))
        dense_bytes = 16 * 4**11  # one dense complex U of 11 qubits
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            full = build_l_encoding(enc, 1.0, 2, 3)
            assert full.unitarity_defect() <= UNITARITY_TOL
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # held and checked as its 32 target columns and gates: no whole U ever existed
        assert full.unitary.shape == (2**11, 2 * 2 * 4 * 2)
        assert peak - start <= dense_bytes / 16


class TestUnitarityCertificate:
    # nq = 10 is a dense U larger than any dense stage
    @pytest.mark.parametrize("nq", [1, 3, 5, 8, pytest.param(10, marks=pytest.mark.slow)])
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
        # U = I + N: E = N + N^H + N^H N has entries above and below the
        # diagonal, and a Frobenius norm under the gate
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

    def test_target_columns_need_their_gates(self):
        # without gates a held U is its own single factor, so it must be whole
        with pytest.raises(ShapeError):
            BlockEncodingUnitary(np.eye(16, 8, dtype=complex), 1.0, 1, 8)

    @pytest.mark.parametrize("eps,passes", [(0.9e-12, True), (2e-12, False)])
    def test_one_opaque_gate_off_unitarity(self, eps, passes):
        # H gates around one controlled OPAQUE gate sqrt(1 + eps) I: the gate
        # bound is eps plus the rounding of the H gates
        hs = [GateOp("H", (q,)) for q in range(4)]
        spec = CircuitSpec(registers=(Register("a", 1, True), Register("n", 3, False)),
                           gates=hs + [GateOp("OPAQUE", (1, 3), ((2, 1),), label="V")] + hs,
                           opaques={"V": np.diag(np.full(4, math.sqrt(1.0 + eps))).astype(complex)})
        stage = _encode(spec, 1.0, 8)
        assert stage.unitary.shape == (16, 8)
        defect = stage.unitarity_defect()
        assert defect == pytest.approx(eps, rel=0.0, abs=1e-14)
        assert (defect <= UNITARITY_TOL) is passes
        assert (whole_unitary_defect(stage) <= UNITARITY_TOL) is passes

    def test_gate_bound_verdict_matches_whole_unitary_on_c09_grid(self):
        stages = c09_stages()
        for stage in stages:
            bound, whole = stage.unitarity_defect(), whole_unitary_defect(stage)
            assert (bound <= UNITARITY_TOL) == (whole <= UNITARITY_TOL)
        assert len(stages) == 16 * 11


def c09_stages():
    """Every stage of the C09 grid: for n = 1, 2, m = 1, 2, k + 1 = 2, 4 and A
    zero or seeded Hermitian, L, the seven primitives, W, B and the coupling."""
    stages = []
    for nq in (0, 1):
        n = 2**nq
        for m in (1, 2):
            for k1 in (2, 4):
                for kind in ("zero", "hermitian"):
                    if kind == "zero":
                        enc = zero_matrix_encoding(nq)
                    else:
                        rng = np.random.default_rng(80_000 + len(stages) // 11)
                        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                        a = (raw + raw.conj().T) / 2
                        enc = hermitian_encoding(a / (1.4 * np.linalg.norm(a, 2)))
                    k, scale = k1 - 1, max(enc.alpha, 1.0)
                    stages += [build_l_encoding(enc, 1.0, m, k),
                               *primitive_encodings(k, m).values(),
                               build_w_encoding(enc, 1.0, k), build_b_encoding(k, m, scale),
                               build_coupling_encoding(k, m, scale)]
    return stages


def bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


class TestGateCaches:
    """Each distinct gate's matrix, certificate and wire bookkeeping is computed
    once; every result must be what a fresh computation per gate gives."""

    def test_certificate_is_the_fresh_fold_on_c09_grid(self):
        for stage in c09_stages():
            assert stage.unitarity_defect() == fresh_unitarity_defect(stage)

    def test_held_stage_keeps_its_certificate(self, monkeypatch):
        # a second call on a realized stage returns the first's bits and
        # folds no delta again: no gate is looked up anew
        stage = c09_stages()[0]
        want = stage.unitarity_defect()
        looked_up = []

        def gate(*key, fn=circuit_sim._gate):
            looked_up.append(key)
            return fn(*key)

        monkeypatch.setattr(circuit_sim, "_gate", gate)
        assert stage.circuit is not None
        assert np.float64(stage.unitarity_defect()).tobytes() == np.float64(want).tobytes()
        assert looked_up == []
        monkeypatch.undo()
        assert want == fresh_unitarity_defect(stage)

    def test_columns_are_the_fresh_product_on_c09_grid(self):
        for stage in c09_stages():
            fresh = fresh_columns(stage.circuit, stage.target_dim)
            assert np.array_equal(bits(stage.unitary), bits(fresh))
            assert np.array_equal(bits(realize_dense(stage.circuit)), bits(fresh))

    def test_rotations_of_different_angles_keep_their_own_defects(self):
        angles = (0.3, 0.7, ZETA, THETA_1, 2.0 * math.acos(0.5), 0.0, -0.0)
        fresh = [_gram_defect(ry_matrix(t)) for t in angles]
        assert len(set(fresh[:5])) > 1
        for _ in range(2):  # the second round reads every cache
            for t, want in zip(angles, fresh):
                spec = CircuitSpec(registers=(Register("n", 1, False),),
                                   gates=[GateOp("RY", (0,), angle=t)])
                stage = _encode(spec, 1.0, 2)
                assert stage.unitarity_defect() == want
                # -0.0 and 0.0 rotate alike but differ in the sign of a zero
                assert np.array_equal(bits(_dense_ops(spec)[0][0]), bits(ry_matrix(t)))
                assert np.array_equal(bits(stage.unitary), bits(fresh_columns(spec, 2)))

    def test_cached_gate_matrix_is_read_only(self):
        spec = random_mixed_stage(0, 8)
        kinds = {g.kind for g in spec.gates}
        assert {"H", "X", "Z", "NEGZ", "RY", "UCRY"} <= kinds
        for g, (gate, _, _) in zip(spec.gates, _dense_ops(spec)):
            if g.kind not in ("OPAQUE", "ADD"):  # an ADD's matrix is rolled anew
                with pytest.raises(ValueError):
                    gate[0, 0] = 2.0


def same_stage(got, want):
    """The same realized stage: columns, normalization, layout and certificate."""
    assert np.array_equal(bits(got.unitary), bits(want.unitary))
    assert (got.alpha, got.ancillas, got.target_dim) == (want.alpha, want.ancillas,
                                                         want.target_dim)
    assert got.unitarity_defect() == want.unitarity_defect()


class TestHeldStages:
    """Each stage that never reads A, and each target, is built once per
    (order, steps[, scale]) and held read-only; every call must return what
    a fresh build through the uncached builder gives."""

    @pytest.mark.parametrize("k1", [2, 4])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("scale", [1.0, 2.5])  # the C09 grid's, and one with a scale wire
    def test_held_results_are_fresh_builds_on_c09_grid(self, k1, m, scale):
        k = k1 - 1
        for _ in range(2):  # the second round reads every held entry
            fresh = primitive_encodings.__wrapped__(k, m)
            for name, stage in primitive_encodings(k, m).items():
                same_stage(stage, fresh[name])
            fresh = primitive_targets.__wrapped__(k, m)
            for name, target in primitive_targets(k, m).items():
                assert np.array_equal(bits(target), bits(fresh[name]))
            assert np.array_equal(bits(coupling_target(k, m)),
                                  bits(coupling_target.__wrapped__(k, m)))
            for build in (build_b_encoding, build_coupling_encoding):
                same_stage(build(k, m, scale), build.__wrapped__(k, m, scale))

    def test_held_arrays_are_read_only_and_dicts_are_new(self):
        stages, targets = primitive_encodings(3, 2), primitive_targets(3, 2)
        held = [*(s.unitary for s in stages.values()), *targets.values(), coupling_target(3, 2),
                build_b_encoding(3, 2).unitary, build_coupling_encoding(3, 2, 2.5).unitary]
        for a in held:
            with pytest.raises(ValueError):
                a[0, 0] = 2.0
        want_stages, want_targets = dict(stages), dict(targets)
        stages.clear()
        targets["m1"] = None
        for got, want in ((primitive_encodings(3, 2), want_stages),
                          (primitive_targets(3, 2), want_targets)):
            assert got.keys() == want.keys()
            assert all(got[name] is want[name] for name in want)
        # a default scale and an explicit 1.0 are one key
        assert build_b_encoding(3, 2) is build_b_encoding(3, 2, 1.0)

    def test_held_entries_stay_within_the_bound(self, monkeypatch):
        held = OrderedDict()
        monkeypatch.setattr(circuit_sim, "_held", held)
        monkeypatch.setattr(circuit_sim, "_HELD_ENTRIES", 100)

        def check(keys):
            assert list(held) == keys
            assert sum(size for _, size in held.values()) <= 100

        enc, targets, b = (("primitive_encodings", 1, 1), ("primitive_targets", 1, 1),
                           ("build_b_encoding", 1, 1, 1.0))
        primitive_encodings(1, 1)  # seven 4 x 2 stages: 56 entries
        primitive_targets(1, 1)  # seven 2 x 2 targets: 28
        check([enc, targets])
        primitive_encodings(1, 1)  # a use makes the key the latest
        check([targets, enc])
        build_b_encoding(1, 1)  # 16 x 2: 32, past the bound, so the targets go
        check([enc, b])
        # 32 x 8 = 256 entries: built and returned, never held, nothing evicted
        stage = build_coupling_encoding(1, 2)
        assert stage.unitary.size > 100
        same_stage(stage, build_coupling_encoding.__wrapped__(1, 2))
        check([enc, b])
        assert build_coupling_encoding(1, 2) is not stage

    def test_errors_are_raised_again_and_hold_nothing(self):
        for _ in range(2):
            with pytest.raises(LayoutError):
                primitive_encodings(2, 2)  # k+1 = 3
            with pytest.raises(SizeError):
                build_coupling_encoding(7, 128)  # 13 qubits
            with pytest.raises(MagnitudeError, match="stage normalization"):
                build_b_encoding(3, 2, 1e308)  # 3 * scale overflows
        assert not [key for key in circuit_sim._held
                    if key[1:3] in ((2, 2), (7, 128)) or key[3:] == (1e308,)]

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_normalization_is_typed(self, alpha):
        with pytest.raises(MagnitudeError, match="stage normalization"):
            BlockEncodingUnitary(np.eye(2, dtype=complex), alpha, 0, 2)
        # W's normalization 3 alpha h overflows at alpha h = 1e308
        with pytest.raises(MagnitudeError, match="stage normalization"):
            build_w_encoding(zero_matrix_encoding(1), 1e308, 3)


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

    @pytest.mark.parametrize("k1", [2, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_hand_written_targets_match_scheme(self, k1, m):
        # S of m Padé steps with p = m (k+1) padding rows, the padding the encoding holds
        k, start = k1 - 1, m * k1
        s = dense_patterns(SCHEMES["pade"](k), m, start)[0]
        targets = primitive_targets(k, m)
        assert np.array_equal(targets["m4"] + targets["m5"], s[start:, start:])
        coupling = s.copy()
        coupling[start:, start:] = 0.0
        for t in range(m):
            coupling[t * k1:(t + 1) * k1, t * k1:(t + 1) * k1] = 0.0
        assert np.array_equal(coupling_target(k, m), coupling)

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

    def test_stage_columns_refused_as_u_a(self):
        stage = build_w_encoding(hermitian_encoding(random_hermitian_unit(2)), 1.0, 1)
        assert stage.unitary.shape == (2**stage.ancillas * 4, 4)
        with pytest.raises(CompositionError):
            build_w_encoding(stage, 1.0, 1)
        with pytest.raises(CompositionError):
            build_l_encoding(stage, 1.0, 1, 1)

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

    def test_budget_edge(self):
        # n = 2, k + 1 = 4, alpha h < 1: m = 4 fills the budget, m = 8 exceeds it
        a = random_hermitian_unit(12)
        enc = hermitian_encoding(a)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            full = build_l_encoding(enc, 1.0, 4, 3)
            assert full.unitarity_defect() <= 1e-12
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # its 64 target columns, below 1/16 of a dense U of the budget
        assert full.unitary.shape == (2**QUBIT_BUDGET, 2 * 4 * 4 * 2)
        assert peak - start <= 4**QUBIT_BUDGET
        residual, ok = verify_block_encoding(full, build_target(a, 1.0, 4, 3), 1e-10)
        assert ok, residual
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(SizeError):
                build_l_encoding(enc, 1.0, 8, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2**20  # raised before anything of size 2^13 exists
        # a 9-qubit A encoding leaves no room for a stage
        with pytest.raises(SizeError):
            build_w_encoding(zero_matrix_encoding(8), 1.0, 1)

    @pytest.mark.parametrize("build", ["w", "l"])
    def test_over_budget_stage_raises_before_u_a_is_formed(self, build):
        # a 512 x 512 A (10 qubits with its ancilla) at alpha h = 0.5: the
        # normalization rotation would make U_A a 2^11 x 2^11 kron (64 MB)
        enc = hermitian_encoding(random_hermitian_unit(31, n=512), alpha=2.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(SizeError):
                if build == "w":
                    build_w_encoding(enc, 0.25, 3)
                else:
                    build_l_encoding(enc, 0.25, 4, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2**20

    def test_padding_constraint_is_structural(self):
        # p = m (k+1) is baked into the index register: one extra top wire
        enc = zero_matrix_encoding(0)
        full = build_l_encoding(enc, 1.0, 2, 1)
        assert full.target_dim == 2 * 2 * 2  # 2 m (k+1) n
