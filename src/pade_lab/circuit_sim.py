"""Gate-level block encodings of the assembled system, at desk scale.

Circuits are recorded as explicit gate lists over named registers and
realized as dense unitaries (qubit 0 is the most significant wire; ancilla
wires sit above the system wires, so the encoded matrix is the top-left block
of the realized unitary).  Everything is exact and checkable: each stage is a
unitary whose projection reproduces its target block up to the declared
normalization.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import CompositionError, LayoutError, ShapeError, SizeError
from .pade_core import is_hermitian
from .system_builder import SCHEMES

QUBIT_BUDGET = 12

#: Gate on ||U^H U - I||_2 that every realized stage must meet.
UNITARITY_TOL = 1e-12

#: Entries of one column block of ``realize_dense`` (2^19 complex, 8 MB) and
#: of one row panel of the Gram matrix in ``unitarity_defect`` (4 MB).
_BLOCK_ENTRIES = 2**19
_PANEL_ENTRIES = 2**18


# ------------------------------------------------------------------ gates ---

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_FIXED_GATES = {"H": _H, "X": _X, "Z": _Z, "NEGZ": -_Z}


def ry_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def add_matrix(width: int) -> np.ndarray:
    """Cyclic increment |j> -> |j+1 mod 2^width>."""
    size = 2**width
    out = np.zeros((size, size), dtype=complex)
    for j in range(size):
        out[(j + 1) % size, j] = 1.0
    return out


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    ancilla: bool


@dataclass(frozen=True)
class GateOp:
    """One primitive operation on absolute wire indices.

    kinds: H X Z NEGZ RY ADD UCRY OPAQUE.  ``controls`` holds (wire, value)
    pairs with value 0 for open and 1 for closed controls.  UCRY applies
    RY(angles[j]) to the target for each basis value j of the selector wires.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    angle: float | None = None
    angles: tuple[float, ...] | None = None
    selector: tuple[int, ...] = ()
    label: str | None = None


@dataclass
class CircuitSpec:
    """Ordered gate list over named registers, with any opaque unitaries attached."""

    registers: tuple[Register, ...]
    gates: list[GateOp] = field(default_factory=list)
    opaques: dict = field(default_factory=dict)

    @property
    def total_qubits(self) -> int:
        return sum(r.width for r in self.registers)

    @property
    def ancilla_qubits(self) -> int:
        return sum(r.width for r in self.registers if r.ancilla)

    def wires(self, name: str) -> list[int]:
        off = 0
        for reg in self.registers:
            if reg.name == name:
                return list(range(off, off + reg.width))
            off += reg.width
        raise KeyError(name)

    def validate(self):
        nq = self.total_qubits
        for g in self.gates:
            touched = list(g.targets) + [c for c, _ in g.controls] + list(g.selector)
            if any(q < 0 or q >= nq for q in touched):
                raise LayoutError(f"gate {g.kind} touches wire outside 0..{nq - 1}")
            if len(set(touched)) != len(touched):
                raise LayoutError(f"gate {g.kind} reuses a wire")
            if g.kind == "UCRY" and len(g.angles) != 2 ** len(g.selector):
                raise LayoutError("UCRY angle list length must match selector dimension")
            if g.kind == "OPAQUE" and g.label not in self.opaques:
                raise LayoutError(f"opaque gate {g.label!r} has no attached unitary")


def _apply(op: np.ndarray, gate: np.ndarray, targets, nq: int, controls=()):
    """Left-multiply a gate (on `targets`, conditioned on `controls`) into op."""
    cols = op.shape[1]
    tensor = op.reshape((2,) * nq + (cols,))
    index = [slice(None)] * (nq + 1)
    for wire, val in controls:
        index[wire] = val
    sub = tensor[tuple(index)]
    ctrl_wires = sorted(w for w, _ in controls)

    def local(w):
        return w - sum(1 for c in ctrl_wires if c < w)

    axes = [local(w) for w in targets]
    rest = [a for a in range(sub.ndim) if a not in axes]
    moved = np.transpose(sub, axes + rest)
    shape = moved.shape
    flat = gate @ moved.reshape(2 ** len(targets), -1)
    tensor[tuple(index)] = np.transpose(flat.reshape(shape), np.argsort(axes + rest))
    return tensor.reshape(2**nq, cols)


def _dense_ops(spec: CircuitSpec) -> list[tuple[np.ndarray, tuple, tuple]]:
    """(gate matrix, targets, controls) of every ``_apply`` the gate list
    makes, a UCRY expanded into one controlled rotation per selector value."""
    ops = []
    for g in spec.gates:
        if g.kind in _FIXED_GATES:
            ops.append((_FIXED_GATES[g.kind], g.targets, g.controls))
        elif g.kind == "RY":
            ops.append((ry_matrix(g.angle), g.targets, g.controls))
        elif g.kind == "ADD":
            ops.append((add_matrix(len(g.targets)), g.targets, g.controls))
        elif g.kind == "UCRY":
            w = len(g.selector)
            for j, ang in enumerate(g.angles):
                bits = tuple((g.selector[i], (j >> (w - 1 - i)) & 1) for i in range(w))
                ops.append((ry_matrix(ang), g.targets, g.controls + bits))
        elif g.kind == "OPAQUE":
            ops.append((spec.opaques[g.label], g.targets, g.controls))
        else:
            raise LayoutError(f"unknown gate kind {g.kind!r}")
    return ops


def realize_dense(spec: CircuitSpec) -> np.ndarray:
    """Multiply the gate list into a dense unitary, one block of columns at a time.

    Gates only left-multiply, so columns c0:c1 of U are the gate list applied
    to columns c0:c1 of the identity.  Each block of at most
    ``_BLOCK_ENTRIES`` entries is realized on its own and copied into U; a U
    that fits in one block is realized in one pass.
    """
    spec.validate()
    nq = spec.total_qubits
    if nq > QUBIT_BUDGET:
        raise SizeError(f"{nq} qubits exceed the desk-scale budget {QUBIT_BUDGET}")
    ops = _dense_ops(spec)
    dim = 2**nq
    width = min(dim, _BLOCK_ENTRIES // dim)

    def columns(c0: int) -> np.ndarray:
        block = np.eye(dim, width, -c0, dtype=complex)
        for gate, targets, controls in ops:
            block = _apply(block, gate, targets, nq, controls)
        return block

    if width == dim:
        return columns(0)
    op = np.empty((dim, dim), dtype=complex)
    for c0 in range(0, dim, width):
        op[:, c0:c0 + width] = columns(c0)
    return op


# --------------------------------------------------------- block encodings ---

@dataclass(frozen=True)
class BlockEncodingUnitary:
    """A dense unitary declared to hold target/alpha in its top-left block."""

    unitary: np.ndarray
    alpha: float
    ancillas: int
    target_dim: int

    def __post_init__(self):
        dim = self.unitary.shape[0]
        if self.unitary.shape != (dim, dim) or dim & (dim - 1):
            raise ShapeError("unitary must be square with power-of-two dimension")
        if self.alpha <= 0:
            raise CompositionError("normalization must be positive")
        if self.target_dim * 2**self.ancillas != dim:
            raise ShapeError("ancilla count inconsistent with dimensions")

    @property
    def projection(self) -> np.ndarray:
        return self.unitary[: self.target_dim, : self.target_dim]

    @property
    def encoded(self) -> np.ndarray:
        return self.alpha * self.projection

    def unitarity_defect(self) -> float:
        """Certified upper bound on ||U^H U - I||_2, exact whenever it exceeds
        UNITARITY_TOL.

        The Frobenius norm bounds the 2-norm from above, so a Frobenius norm
        at or below the gate already proves the gate and is returned as is;
        otherwise the exact 2-norm is computed by SVD.  Either way
        ``defect <= UNITARITY_TOL`` gives the verdict of the exact 2-norm.

        E = U^H U - I is Hermitian, so ||E||_F^2 is summed over its upper row
        panels of ``_PANEL_ENTRIES`` entries: each panel's diagonal block
        counts once and the blocks right of it twice, for their mirror images.
        """
        u = self.unitary
        rows = _PANEL_ENTRIES // u.shape[0]
        square = 0.0
        for i0 in range(0, u.shape[0], rows):
            panel = u[:, i0:i0 + rows].conj().T @ u[:, i0:]
            width = panel.shape[0]
            panel[np.arange(width), np.arange(width)] -= 1.0
            diag, rest = panel[:, :width], panel[:, width:]
            square += np.vdot(diag, diag).real + 2.0 * np.vdot(rest, rest).real
        frobenius = math.sqrt(square)
        if frobenius <= UNITARITY_TOL:
            return frobenius
        defect = u.conj().T @ u
        defect[np.diag_indices_from(defect)] -= 1.0
        return float(np.linalg.norm(defect, 2))


def verify_block_encoding(enc: BlockEncodingUnitary, target, tol: float = 1e-10) -> tuple[float, bool]:
    """Residual ||target - alpha * projection||_2 and whether it is within tol."""
    t = np.asarray(target, dtype=complex)
    if t.shape != (enc.target_dim, enc.target_dim):
        raise ShapeError(f"target shape {t.shape} vs encoded dim {enc.target_dim}")
    residual = float(np.linalg.norm(t - enc.encoded, 2))
    return residual, residual <= tol


def _qubits_for(value: int, what: str) -> int:
    q = int(value).bit_length() - 1
    if 2**q != value:
        raise LayoutError(f"{what}={value} must be a power of two")
    return q


def _encode(spec: CircuitSpec, alpha: float, target_dim: int) -> BlockEncodingUnitary:
    return BlockEncodingUnitary(realize_dense(spec), alpha, spec.ancilla_qubits, target_dim)


def zero_matrix_encoding(n_qubits: int) -> BlockEncodingUnitary:
    """(1,1)-encoding of the zero matrix: an X on the ancilla moves everything out."""
    spec = CircuitSpec(registers=(Register("a", 1, True), Register("n", n_qubits, False)),
                       gates=[GateOp("X", (0,))])
    return _encode(spec, 1.0, 2**n_qubits)


def hermitian_encoding(matrix_a, alpha: float | None = None) -> BlockEncodingUnitary:
    """(alpha,1)-encoding of a Hermitian matrix via the complement square root."""
    a = np.asarray(matrix_a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or n < 1 or n & (n - 1):
        raise ShapeError("need a square matrix of power-of-two dimension")
    if not is_hermitian(a):
        raise CompositionError("matrix must be Hermitian")
    norm = float(np.linalg.norm(a, 2))
    if alpha is None:
        alpha = norm if norm > 0 else 1.0
    if alpha < norm - 1e-12:
        raise CompositionError("alpha must dominate the spectral norm")
    scaled = a / alpha
    w, v = np.linalg.eigh(scaled)
    comp = (v * np.sqrt(np.maximum(0.0, 1.0 - w**2))) @ v.conj().T
    u = np.block([[scaled, comp], [comp, -scaled]])
    return BlockEncodingUnitary(u, float(alpha), 1, n)


# ----------------------------------------------- figure-level constructions ---

def primitive_targets(order: int, steps: int) -> dict[str, np.ndarray]:
    """Dense targets of the seven primitive encodings, for verification.

    m1 (shift), m2 (summation row) and m3 (ratio diagonal) split the
    rational scheme's one-step patterns; m6 is its coupling row.
    """
    k, m = order, steps
    k1 = k + 1
    p = m * k1
    rec = SCHEMES["pade"](k)
    signed_row = np.zeros((k1, k1))
    signed_row[0] = rec.coupling
    return {
        "m1": np.tril(rec.s1, -1),
        "m2": np.triu(rec.s1),
        "m3": rec.b1,
        "m4": np.diag(-np.ones(p - 1), -1),
        "m5": np.diag([1.0 / math.sqrt(k1)] + [1.0] * (p - 1)),
        "m6": signed_row,
        "m7": np.diag([1.0] * m + [0.0] * m),
    }


# One gate emitter per primitive block appends its gates under the extra
# controls ``c``: () for the standalone encodings, the combination controls in
# the stages.  The block is projected on |0> of ``flag``.

def _emit_m1(g, flag, kw, k, c=()):
    """Shift: flag the last slot, whose wrap-around leaves the block, then increment."""
    g(GateOp("X", (flag,), c + tuple((q, 1) for q in kw)))
    g(GateOp("ADD", tuple(kw), c))


def _emit_m2(g, flag, kw, k, c=()):
    """Summation row: a uniform superposition kept only on the first slot."""
    g(GateOp("X", (flag,), c))
    for q in kw:
        g(GateOp("H", (q,), c))
    g(GateOp("X", (flag,), c + tuple((q, 0) for q in kw)))


def _emit_m3(g, flag, kw, k, c=()):
    """Ratio diagonal: one rotation per slot, cos(angle/2) the diagonal entry."""
    diag = np.diag(SCHEMES["pade"](k).b1)
    g(GateOp("UCRY", (flag,), c, angles=tuple(2.0 * math.acos(v) for v in diag),
             selector=tuple(kw)))


def _emit_m4(g, flag, pw, k, c=()):
    """Negated shift of the padding chain."""
    g(GateOp("X", (flag,), c + tuple((q, 1) for q in pw)))
    g(GateOp("NEGZ", (flag,), c))
    g(GateOp("ADD", tuple(pw), c))


def _emit_m5(g, flag, pw, k, c=()):
    """Padding diagonal: 1/sqrt(k+1) on the first slot, 1 elsewhere."""
    theta0 = 2.0 * math.acos(1.0 / math.sqrt(k + 1))
    g(GateOp("RY", (flag,), c + tuple((q, 0) for q in pw), angle=theta0))


def _emit_m6(g, flag, kw, k, c=()):
    """Coupling row: the summation row with alternating signs."""
    g(GateOp("X", (flag,), c))
    for q in kw:
        g(GateOp("H", (q,), c))
    g(GateOp("X", (kw[-1],), c))
    g(GateOp("X", (flag,), c + tuple((q, 0) for q in kw)))


def _emit_m7(g, flag, sw, k, c=()):
    """First-half selector: keeps the slots whose top wire is clear."""
    g(GateOp("X", (flag,), c + ((sw[0], 1),)))


#: Primitive name -> (register it acts on, gate emitter).
_PRIMITIVES = {
    "m1": ("k", _emit_m1), "m2": ("k", _emit_m2), "m3": ("k", _emit_m3),
    "m4": ("p", _emit_m4), "m5": ("p", _emit_m5), "m6": ("k", _emit_m6),
    "m7": ("s", _emit_m7),
}

#: Register order of every stage; the first six are ancillas.
_LAYOUT = ("lcu", "scale", "w1", "w2", "flag", "d", "top", "m", "k", "n")


class _Stage:
    """A stage circuit over ``_LAYOUT`` registers, each of width 0 left out
    (its ``wires`` entry is empty); a scale wire joins when ``scale > 1`` and
    carries :meth:`scale_rot`."""

    def __init__(self, scale: float = 1.0, opaques=None, **widths):
        widths["scale"] = int(scale > 1.0)
        regs = [Register(r, widths[r], r in _LAYOUT[:6]) for r in _LAYOUT if widths.get(r)]
        self.spec = CircuitSpec(registers=tuple(regs), opaques=opaques or {})
        self.g, self.scale = self.spec.gates.append, scale
        self.wires = defaultdict(list, {r.name: self.spec.wires(r.name) for r in regs})

    def scale_rot(self, controls):
        """Rotation that divides the branch under ``controls`` by ``scale``."""
        if self.scale > 1.0:
            phi = 2.0 * math.acos(1.0 / self.scale)
            self.g(GateOp("RY", (self.wires["scale"][0],), tuple(controls), angle=phi))


def primitive_encodings(order: int, steps: int) -> dict[str, BlockEncodingUnitary]:
    """Standalone (1,1)-encodings of the seven primitive blocks (power-of-two sizes)."""
    k, m = int(order), int(steps)
    kq = _qubits_for(k + 1, "k+1")
    mq = _qubits_for(m, "m")
    widths = {"k": kq, "p": mq + kq, "s": 1 + mq}
    out: dict[str, BlockEncodingUnitary] = {}
    for name, (reg, emit) in _PRIMITIVES.items():
        spec = CircuitSpec(registers=(Register("flag", 1, True), Register(reg, widths[reg], False)))
        emit(spec.gates.append, 0, spec.wires(reg), k)
        out[name] = _encode(spec, 1.0, 2 ** widths[reg])
    return out


#: Rotation angles fixed by the construction: LCU over three unit weights,
#: the 2->3 normalization adjustment, and the top-level 3+1 combination.
ZETA = 2.0 * math.acos(math.sqrt(6.0) / 3.0)
THETA_1 = 2.0 * math.acos(2.0 / 3.0)
THETA_2 = math.pi / 3.0


def _normalized_a(a_encoding: BlockEncodingUnitary, step_h: float):
    """(unitary, ancilla width, scale) with the A normalization matched to h.

    Below alpha*h = 1 a single rotation wire raises the normalization to 1/h;
    above it the surrounding stages must carry the residual factor `scale`.
    """
    alpha_h = a_encoding.alpha * step_h
    ua, width = a_encoding.unitary, a_encoding.ancillas
    if alpha_h < 1.0 - 1e-12:
        return np.kron(ry_matrix(2.0 * math.acos(alpha_h)), ua), width + 1, 1.0
    return ua, width, alpha_h if alpha_h > 1.0 + 1e-12 else 1.0


def _one_step_branch(st: _Stage, k: int, base):
    """Three-term combination for one step block: shift, summation row, ratios*A."""
    w1, w2, flag = (st.wires[r][0] for r in ("w1", "w2", "flag"))
    kw = st.wires["k"]
    prepare = (GateOp("Z", (w1,), base), GateOp("RY", (w1,), base, angle=ZETA),
               GateOp("H", (w2,), base))
    for op in prepare:
        st.g(op)
    st.scale_rot(base + ((w1, 0),))  # the two A-free terms carry 1/(alpha h)
    _emit_m1(st.g, flag, kw, k, base + ((w1, 0), (w2, 0)))
    _emit_m2(st.g, flag, kw, k, base + ((w1, 0), (w2, 1)))
    _emit_m3(st.g, flag, kw, k, base + ((w1, 1),))
    st.g(GateOp("OPAQUE", tuple(st.wires["d"] + st.wires["n"]), base + ((w1, 1),), label="U_A"))
    for op in prepare:
        st.g(op)


def _padding_branch(st: _Stage, k: int, base):
    """Two-term combination for the padding chain, raised from 2 to 3."""
    w1, w2, flag = (st.wires[r][0] for r in ("w1", "w2", "flag"))
    pw = st.wires["m"] + st.wires["k"]
    st.scale_rot(base)
    st.g(GateOp("RY", (w1,), base, angle=THETA_1))
    st.g(GateOp("H", (w2,), base))
    _emit_m5(st.g, flag, pw, k, base + ((w2, 0),))
    _emit_m4(st.g, flag, pw, k, base + ((w2, 1),))
    st.g(GateOp("H", (w2,), base))


def _coupling_branch(st: _Stage, k: int, base):
    """Step coupling: select the first half and the signed row, then increment.

    The selection must run before the cyclic increment; the reversed order
    would park a spurious coupling block in the wrap-around corner.
    """
    sw = st.wires["top"] + st.wires["m"]
    st.scale_rot(base)
    _emit_m7(st.g, st.wires["w1"][0], sw, k, base)
    _emit_m6(st.g, st.wires["flag"][0], st.wires["k"], k, base)
    st.g(GateOp("ADD", tuple(sw), base))


def build_w_encoding(a_encoding: BlockEncodingUnitary, step_h: float,
                     order: int) -> BlockEncodingUnitary:
    """(3*max(alpha h,1), d+3 or d+4)-encoding of the one-step block W_k(A h)."""
    k = int(order)
    kq = _qubits_for(k + 1, "k+1")
    nq_n = _qubits_for(a_encoding.target_dim, "n")
    ua, a_width, scale = _normalized_a(a_encoding, step_h)
    st = _Stage(scale, {"U_A": ua}, w1=1, w2=1, flag=1, d=a_width, k=kq, n=nq_n)
    _one_step_branch(st, k, ())
    return _encode(st.spec, 3.0 * scale, (k + 1) * a_encoding.target_dim)


def build_b_encoding(order: int, steps: int, scale: float = 1.0) -> BlockEncodingUnitary:
    """(3*scale, 3 or 4)-encoding of the p x p padding bidiagonal chain."""
    k, m = int(order), int(steps)
    kq = _qubits_for(k + 1, "k+1")
    mq = _qubits_for(m, "m")
    st = _Stage(scale, w1=1, w2=1, flag=1, m=mq, k=kq)
    _padding_branch(st, k, ())
    return _encode(st.spec, 3.0 * scale, m * (k + 1))


def build_coupling_encoding(order: int, steps: int, scale: float = 1.0) -> BlockEncodingUnitary:
    """(scale, 2 or 3)-encoding of the inter-step coupling term (n-factor dropped)."""
    k, m = int(order), int(steps)
    kq = _qubits_for(k + 1, "k+1")
    mq = _qubits_for(m, "m")
    st = _Stage(scale, w1=1, flag=1, top=1, m=mq, k=kq)
    _coupling_branch(st, k, ())
    return _encode(st.spec, scale, 2 * m * (k + 1))


def coupling_target(order: int, steps: int) -> np.ndarray:
    """Dense coupling term over the 2m(k+1) index space (without the n factor)."""
    k, m = int(order), int(steps)
    targets = primitive_targets(k, m)
    # cyclic one-slot down-shift composed with the half-selected signed row
    return np.roll(np.kron(targets["m7"], targets["m6"]), k + 1, axis=0)


def build_l_encoding(a_encoding: BlockEncodingUnitary, step_h: float,
                     steps: int, order: int) -> BlockEncodingUnitary:
    """Gate-level encoding of the full assembled operator.

    Returns a (4*max(alpha*h, 1), d+5)-encoding (d+4 when alpha*h = 1): the
    one-step blocks enter through a three-term combination, the padding chain
    through a two-term one raised to match, and the step coupling through a
    select-then-increment product stage.
    """
    m, k = int(steps), int(order)
    kq = _qubits_for(k + 1, "k+1")
    mq = _qubits_for(m, "m")
    sys_dim = a_encoding.target_dim
    nq_n = _qubits_for(sys_dim, "n")
    ua, a_width, scale = _normalized_a(a_encoding, step_h)
    st = _Stage(scale, {"U_A": ua}, lcu=1, w1=1, w2=1, flag=1, d=a_width,
                top=1, m=mq, k=kq, n=nq_n)
    lcu, top = st.wires["lcu"][0], st.wires["top"][0]
    st.g(GateOp("Z", (lcu,)))
    st.g(GateOp("RY", (lcu,), angle=THETA_2))
    _one_step_branch(st, k, ((lcu, 0), (top, 0)))
    _padding_branch(st, k, ((lcu, 0), (top, 1)))
    _coupling_branch(st, k, ((lcu, 1),))
    st.g(GateOp("Z", (lcu,)))
    st.g(GateOp("RY", (lcu,), angle=THETA_2))
    return _encode(st.spec, 4.0 * scale, 2 * m * (k + 1) * sys_dim)
