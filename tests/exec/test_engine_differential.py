"""Engine differential test: every ALU, vector-ALU and reduction mnemonic,
and every load, store, vector load/store, ``vsetvli`` and branch
mnemonic, on every fast engine, byte-for-byte against the interpreter.

One kernel per mnemonic loads per-µthread operands from its pool slice,
executes the mnemonic and stores every register it may have written.
Vector mnemonics run three passes: SEW=64 at vl=4, SEW=32 at vl=4, and
SEW=64 at vl=0 (the destination is then stored at vl=4, so a write of
the wrong length shows up as bytes).  The launch width picks the engine:
256 µthreads take the launch-uniform walk, 48 (below the batch threshold
but wider than the device's 32 units) the masked SIMT walk and 16 the
point engine; the routing counters prove which engine actually ran.
The memory and control kernels are described where they are built.
"""

import functools

import numpy as np
import pytest

from repro.host.api import pack_args
from repro.isa import vectorops as vo
from repro.isa.encoding import OPCODES, OpClass
from repro.workloads.base import make_platform

#: Pool and output bytes per µthread.
STRIDE = 256
#: The widest launch; narrower launches use a prefix of the same slices.
MAX_UTHREADS = 256

#: engine -> (body µthreads, counter that must read 1, counters that must
#: stay 0)
ENGINES = {
    "uniform": (256, "exec.batched_launches",
                ("exec.simt_launches", "exec.batched_fallbacks")),
    "simt": (48, "exec.simt_launches",
             ("exec.batched_launches", "exec.point_launches",
              "exec.batched_fallbacks")),
    "point": (16, "exec.point_launches",
              ("exec.batched_launches", "exec.batched_fallbacks")),
}

_INT_EDGES = [0, 1, -1, 2, 13, 63, 64, -64, -(1 << 63), (1 << 63) - 1,
              0x7FFFFFFF, -0x80000000, 0xFFFFFFFF]
_FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 2.5, -7.75, 3.0, 1e10, -1e-10]

# Operand slice layout: x4, x5, f1, f2, f3 at byte 0, 8, 16, 24, 32, then
_V64 = 64           # v1, v2, v3, v0 at SEW=64: 4 elements x 8 B each
_V32 = 192          # v1, v2, v3, v0 at SEW=32: 4 elements x 4 B each


# ---------------------------------------------------------------------------
# the instruction under test, per mnemonic
# ---------------------------------------------------------------------------


def _scalar_op(mn: str) -> str:
    if mn in vo.INT_BINOPS or mn in ("addw", "mulw"):
        return f"{mn} x6, x4, x5"
    if mn in vo.INT_IMMOPS:
        imm = 13 if vo.INT_IMMOPS[mn] in ("sll", "srl", "sra") else -37
        return f"{mn} x6, x4, {imm}"
    if mn in vo.FP_BINOPS:
        return f"{mn} f4, f1, f2"
    if mn in vo.FP_COMPARES:
        return f"{mn} x6, f1, f2"
    return {
        "li": "li x6, 0xFEDCBA9876543210",
        "lui": "lui x6, 0xABCDE",
        "mv": "mv x6, x4",
        "neg": "neg x6, x4",
        "seqz": "seqz x6, x4",
        "snez": "snez x6, x4",
        "fmadd.d": "fmadd.d f4, f1, f2, f3",
        "fsqrt.d": "fsqrt.d f4, f1",
        "fmv.d": "fmv.d f4, f1",
        "fmv.x.d": "fmv.x.d x6, f1",
        "fmv.d.x": "fmv.d.x f4, x4",
        "fcvt.d.l": "fcvt.d.l f4, x4",
        "fcvt.s.l": "fcvt.s.l f4, x4",
        "fcvt.l.d": "fcvt.l.d x6, f1",
    }[mn]


def _vector_op(mn: str) -> str:
    fmt = OPCODES[mn].fmt
    if fmt == "vab":
        return f"{mn} v3, v1, v2"
    if fmt == "vax":
        return f"{mn} v3, v1, x4"
    if fmt == "vaf":
        return f"{mn} v3, v1, f1"
    if fmt == "vai":
        return f"{mn} v3, v1, {-3 if mn == 'vadd.vi' else 3}"
    return {
        "vmv.v.i": "vmv.v.i v3, -3",
        "vmv.v.x": "vmv.v.x v3, x4",
        "vmv.v.v": "vmv.v.v v3, v1",
        "vid.v": "vid.v v3",
        "vfmv.v.f": "vfmv.v.f v3, f1",
        "vmv.x.s": "vmv.x.s x6, v1",
        "vmv.s.x": "vmv.s.x v3, x4",
        "vfmv.f.s": "vfmv.f.s f4, v1",
    }[mn]


_PROLOGUE = """
.body
    ld   x20, 0(x3)        // output base
    add  x20, x20, x2      // this µthread's output slice
    ld   x4, 0(x1)
    ld   x5, 8(x1)
    fld  f1, 16(x1)
    fld  f2, 24(x1)
    fld  f3, 32(x1)
    li   x7, 4
    li   x9, 0
"""


def _vector_pass(op: str, sew: int, vl_reg: str, load: int, out: int) -> str:
    step = 4 * sew // 8
    return f"""
    li   x6, 0
    fcvt.d.l f4, x0
    vsetvli x0, x7, e{sew}
    vle{sew}.v v1, {load}(x1)
    vle{sew}.v v2, {load + step}(x1)
    vle{sew}.v v3, {load + 2 * step}(x1)
    vle{sew}.v v0, {load + 3 * step}(x1)
    vsetvli x0, {vl_reg}, e{sew}
    {op}
    vsetvli x0, x7, e{sew}
    vse{sew}.v v3, {out}(x20)
    sd   x6, {out + 32}(x20)
    fsd  f4, {out + 40}(x20)
"""


def kernel_source(mn: str) -> str:
    if OPCODES[mn].op_class is OpClass.ALU:
        return _PROLOGUE + f"""
    {_scalar_op(mn)}
    sd   x6, 0(x20)
    fsd  f4, 8(x20)
    ret
"""
    op = _vector_op(mn)
    return (_PROLOGUE
            + _vector_pass(op, 64, "x7", _V64, 0)
            + _vector_pass(op, 32, "x7", _V32, 48)
            + _vector_pass(op, 64, "x9", _V64, 96)
            + "    ret\n")


#: Every mnemonic the shared lockstep core executes.
MNEMONICS = sorted(
    mn for mn, spec in OPCODES.items()
    if spec.op_class in (OpClass.ALU, OpClass.VALU_OP, OpClass.VRED))


# ---------------------------------------------------------------------------
# operands and launches
# ---------------------------------------------------------------------------


def _pick(rng, edges, random_values, pair=(0, 1)):
    """Half edge values, half ``random_values``; the leading rows hold
    every ordered pair of edge values in the two ``pair`` columns."""
    edges = np.asarray(edges)
    use_edge = rng.random(random_values.shape) < 0.5
    edge = edges[rng.integers(0, len(edges), random_values.shape)]
    out = np.where(use_edge, edge, random_values)
    first, second = np.meshgrid(edges, edges, indexing="ij")
    count = first.size
    out[:count, pair[0]] = first.ravel()
    out[:count, pair[1]] = second.ravel()
    return out


def operands(mn: str) -> np.ndarray:
    """(MAX_UTHREADS, STRIDE) bytes of per-µthread operands for ``mn``."""
    rng = np.random.default_rng(sum(map(ord, mn)))
    n = MAX_UTHREADS
    words = np.zeros((n, STRIDE // 8), dtype=np.uint64)
    ints = _pick(rng, _INT_EDGES,
                 rng.integers(-(1 << 40), 1 << 40, (n, 2))).astype(np.int64)
    floats = _pick(rng, _FLOAT_EDGES, rng.normal(0.0, 100.0, (n, 3)))
    if mn == "fsqrt.d":
        # the spec's domain: non-negative, including -0.0
        floats = np.where(floats == 0, floats, np.abs(floats))
    words[:, 0:2] = ints.view(np.uint64)
    words[:, 2:5] = floats.view(np.uint64)
    is_float = mn.startswith(("vf", "vmf"))
    if is_float:
        v64 = _pick(rng, _FLOAT_EDGES, rng.normal(0.0, 10.0, (n, 12)), (0, 4))
        v32 = _pick(rng, _FLOAT_EDGES, rng.normal(0.0, 10.0, (n, 12)), (0, 4))
        v32 = v32.astype(np.float32).view(np.uint32)
    else:
        v64 = _pick(rng, _INT_EDGES,
                    rng.integers(-(1 << 40), 1 << 40, (n, 12)), (0, 4))
        v32 = rng.integers(-(1 << 31), 1 << 31, (n, 12)).astype(np.int32)
    mask = rng.integers(0, 2, (n, 4))
    words[:, 8:20] = np.asarray(v64).astype(
        np.float64 if is_float else np.int64).view(np.uint64)
    words[:, 20:24] = mask
    lanes32 = np.zeros((n, 16), dtype=np.uint32)
    lanes32[:, :12] = np.asarray(v32).view(np.uint32)
    lanes32[:, 12:] = mask
    words[:, 24:32] = lanes32.view(np.uint64)
    return words.view(np.uint8).reshape(n, STRIDE)


def run_kernel(source: str, data: np.ndarray, backend: str, n: int,
               table: np.ndarray | None = None):
    """Launch ``source`` over the first ``n`` slices of ``data``; returns
    (platform, output bytes per µthread).  ``table``, when given, is
    placed in memory and its address passed as the second argument."""
    platform = make_platform(backend=backend)
    runtime = platform.runtime
    pool = runtime.alloc_array(np.ascontiguousarray(data[:n]))
    out = runtime.alloc(n * STRIDE)
    args = [out]
    if table is not None:
        args.append(runtime.alloc_array(table))
    runtime.run_kernel(source, pool, pool + n * STRIDE,
                       args=pack_args(*args), stride=STRIDE)
    produced = runtime.read_array(out, np.uint8, n * STRIDE)
    return platform, produced.reshape(n, STRIDE)


@functools.lru_cache(maxsize=None)
def _reference(mn: str) -> np.ndarray:
    _, produced = run_kernel(kernel_source(mn), operands(mn), "interpreter",
                             MAX_UTHREADS)
    return produced


def _first_mismatch(got: np.ndarray, want: np.ndarray) -> str:
    lane, byte = (int(i[0]) for i in np.nonzero(got != want))
    word = byte // 8 * 8
    return (f"µthread {lane}, output byte {word}: "
            f"{got[lane, word:word + 8].view(np.uint64)[0]:#x} != "
            f"{want[lane, word:word + 8].view(np.uint64)[0]:#x}")


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("mn", MNEMONICS)
def test_engine_matches_interpreter(mn, engine):
    n, ran, idle = ENGINES[engine]
    platform, got = run_kernel(kernel_source(mn), operands(mn), "batched", n)
    stats = platform.stats
    assert stats.get(ran) == 1, f"{mn} did not run on the {engine} engine"
    for counter in idle:
        assert stats.get(counter, 0.0) == 0, counter
    want = _reference(mn)[:n]
    assert np.array_equal(got, want), _first_mismatch(got, want)


# ---------------------------------------------------------------------------
# minimal reproducers: fsqrt.d of -0.0, splats at vl=0
# ---------------------------------------------------------------------------


def _first_words(source: str, n: int, backend: str):
    """Run ``source`` on zeroed slices; (platform, first output word per
    µthread)."""
    platform, produced = run_kernel(
        source, np.zeros((n, STRIDE), dtype=np.uint8), backend, n)
    return platform, produced[:, :8].copy().view(np.uint64)[:, 0].tolist()


def test_fsqrt_of_negative_zero_is_positive_zero_on_uniform_walk():
    source = """
.body
    ld   x20, 0(x3)
    add  x20, x20, x2
    li   x4, 1
    slli x4, x4, 63        // bit pattern of -0.0
    fmv.d.x f1, x4
    fsqrt.d f2, f1
    fsd  f2, 0(x20)
    ret
"""
    assert _first_words(source, 256, "interpreter")[1] == [0] * 256
    platform, got = _first_words(source, 256, "batched")
    assert platform.stats.get("exec.batched_launches") == 1
    assert got == [0] * 256


@pytest.mark.parametrize("splat", ["vmv.v.x v1, x4", "vfmv.v.f v1, f1"])
def test_vl0_splat_writes_no_elements_on_simt_walk(splat):
    source = f"""
.body
    ld   x20, 0(x3)
    add  x20, x20, x2
    li   x4, 77
    fcvt.d.l f1, x4
    li   x5, 0
    vsetvli x0, x5, e64
    {splat}
    vmv.x.s x6, v1
    sd   x6, 0(x20)
    ret
"""
    assert _first_words(source, 48, "interpreter")[1] == [0] * 48
    platform, got = _first_words(source, 48, "batched")
    assert platform.stats.get("exec.simt_launches") == 1
    assert platform.stats.get("exec.point_launches", 0.0) == 0
    assert got == [0] * 48


# ---------------------------------------------------------------------------
# memory and control mnemonics
# ---------------------------------------------------------------------------
#
# One kernel per mnemonic.  Loads read their µthread's operand slice at
# aligned and unaligned offsets and store what they loaded; stores write
# values loaded from the slice, at aligned and unaligned offsets, of
# every width; vector loads and stores run at a partial, a clamped and a
# zero vector length and at a mismatched SEW.  Branches and ``vsetvli``
# have two variants.  The launch-uniform engine needs launch-uniform
# branch outcomes and vector lengths (a divergent one hands the launch
# to the SIMT engine), so its variant reads every operand pair from one
# table shared by all µthreads.  The SIMT and point engines read
# per-µthread operands from their slices, so their branches diverge.

#: Every load, store, vector load/store, vsetvli and branch mnemonic.
MEMORY_CONTROL = sorted(
    mn for mn, spec in OPCODES.items()
    if spec.op_class in (OpClass.LOAD, OpClass.STORE, OpClass.VLOAD,
                         OpClass.VSTORE, OpClass.VSET, OpClass.BRANCH))

#: Launch widths: the launch-uniform walk needs at least 64 µthreads.
MEMORY_WIDTHS = {"uniform": 64, "simt": 48, "point": 16}

#: Branch operand edges of the shared table: every ordered pair is one
#: loop iteration of the launch-uniform variant.
_BRANCH_EDGES = [0, 1, -1, 2, -(1 << 63), (1 << 63) - 1, -0x80000000,
                 0xFFFFFFFF]

#: Non-negative AVLs (a negative AVL is an error in the specification).
_AVL_EDGES = [0, 1, 3, 4, 5, 8, 9, 31, 32, 33, 1 << 40, (1 << 63) - 1]

_OUT = """
.body
    ld   x20, 0(x3)        // output base
    add  x20, x20, x2      // this µthread's output slice
"""


def _body(lines: list[str]) -> str:
    return _OUT + "".join(f"    {line}\n" for line in lines) + "    ret\n"


def _width(mn: str) -> int:
    """Element width in bits of ``vleN.v`` / ``vseN.v``."""
    return int(mn[3:-2])


def _load_kernel(mn: str) -> str:
    fp = mn in vo.FP_LOADS
    lines = []
    for i, off in enumerate((0, 3, 8, 13, 64, 129, 248)):
        if fp:
            lines += [f"{mn} f4, {off}(x1)", f"fsd  f4, {8 * i}(x20)"]
        else:
            lines += [f"{mn} x6, {off}(x1)", f"sd   x6, {8 * i}(x20)"]
    if not fp:
        lines += [f"{mn} x0, 0(x1)", "sd   x0, 56(x20)"]
    return _body(lines)


def _store_kernel(mn: str) -> str:
    fp = mn in vo.FP_STORES
    reg = "f4" if fp else "x6"
    lines = []
    load = "fld " if fp else "ld  "
    for i, off in enumerate((0, 11, 24, 37, 64, 101, 248)):
        lines += [f"{load} {reg}, {8 * i}(x1)", f"{mn} {reg}, {off}(x20)"]
    if not fp:
        lines.append(f"{mn} x0, 128(x20)")
    return _body(lines)


_AVLS = ["li   x7, 3", "li   x8, 1000", "li   x9, 0", "li   x10, 2"]


def _vload_kernel(mn: str) -> str:
    w = _width(mn)
    return _body(_AVLS + [
        f"vsetvli x0, x7, e{w}",
        f"{mn} v1, 0(x1)",
        f"vsetvli x0, x8, e{w}",
        f"{mn} v2, 5(x1)",
        f"vsetvli x0, x9, e{w}",
        f"{mn} v3, 40(x1)",
        "vsetvli x0, x10, e64",      # vl comes from the e64 configuration
        f"{mn} v4, 77(x1)",
        "vmv.x.s x6, v2",
        "sd   x6, 128(x20)",
        f"vsetvli x0, x8, e{w}",
        f"vse{w}.v v1, 0(x20)",
        f"vse{w}.v v2, 32(x20)",
        f"vse{w}.v v3, 64(x20)",
        f"vse{w}.v v4, 96(x20)",
        "vmv.x.s x6, v2",
        "sd   x6, 136(x20)",
        "vsetvli x0, x8, e64",       # the element patterns as 64-bit words
        "vse64.v v1, 144(x20)",
        "vse64.v v2, 176(x20)",
        "vse64.v v4, 208(x20)",
    ])


def _vstore_kernel(mn: str) -> str:
    w = _width(mn)
    return _body(_AVLS + [
        "li   x11, 4",
        "vsetvli x0, x11, e64",
        "vle64.v v1, 0(x1)",
        "vle64.v v2, 32(x1)",
        f"vsetvli x0, x7, e{w}",
        f"{mn} v1, 0(x20)",
        f"vsetvli x0, x8, e{w}",     # past the four loaded elements
        f"{mn} v1, 40(x20)",
        f"{mn} v2, 77(x20)",
        f"vsetvli x0, x9, e{w}",
        f"{mn} v2, 120(x20)",
        f"vsetvli x0, x8, e{w}",
        f"vle{w}.v v3, 128(x1)",
        f"{mn} v3, 160(x20)",
        "vsetvli x0, x10, e64",      # a different SEW configures vl
        f"{mn} v2, 200(x20)",
    ])


def _vset_kernel(lane_operands: bool) -> str:
    widths = (8, 16, 32, 64)
    lines = []
    if lane_operands:
        # per-µthread AVLs: only the returned vl, since any vector
        # instruction under a divergent vl leaves the SIMT engine
        for i in range(16):
            lines += [f"ld   x4, {8 * i}(x1)",
                      f"vsetvli x6, x4, e{widths[i % 4]}",
                      f"sd   x6, {8 * i}(x20)"]
        return _body(lines)
    slot = 0
    for i, w in enumerate(widths):
        for avl in (0, 1, 3, 4, 5, 9, 32, 1 << 40):
            lines += [f"li   x4, {avl}", f"vsetvli x6, x4, e{w}",
                      f"sb   x6, {slot}(x20)"]
            slot += 1
        # the configured vl bounds the next vector write
        lines += ["li   x4, 3", f"vsetvli x0, x4, e{w}", "vid.v v1",
                  "li   x4, 1000", f"vsetvli x0, x4, e{w}",
                  f"vse{w}.v v1, {32 + 32 * i}(x20)"]
    return _body(lines)


def _branch_kernel(mn: str, lane_operands: bool) -> str:
    if mn == "j":
        return _body(["li   x6, 7", "j    over", "li   x6, 9", "over:",
                      "sd   x6, 0(x20)"])
    pairs = 16 if lane_operands else len(_BRANCH_EDGES) ** 2
    operands = ("x4, x5" if OPCODES[mn].fmt == "abl" else "x4")
    return _body([
        "mv   x21, x1" if lane_operands else "ld   x21, 8(x3)",
        f"li   x22, {pairs}",
        "loop:",
        "ld   x4, 0(x21)",
        "ld   x5, 8(x21)",
        "li   x6, 1",
        f"{mn} {operands}, taken",
        "li   x6, 2",
        "taken:",
        "sb   x6, 0(x20)",
        "addi x20, x20, 1",
        "addi x21, x21, 16",
        "addi x22, x22, -1",
        "bnez x22, loop",
    ])


def _has_variants(mn: str) -> bool:
    """Branches and vsetvli read launch-uniform operands on the uniform
    engine and per-µthread operands elsewhere."""
    op = OPCODES[mn].op_class
    return op is OpClass.VSET or (op is OpClass.BRANCH and mn != "j")


def memory_control_kernel(mn: str, lane_operands: bool) -> str:
    op = OPCODES[mn].op_class
    if op is OpClass.LOAD:
        return _load_kernel(mn)
    if op is OpClass.STORE:
        return _store_kernel(mn)
    if op is OpClass.VLOAD:
        return _vload_kernel(mn)
    if op is OpClass.VSTORE:
        return _vstore_kernel(mn)
    if op is OpClass.VSET:
        return _vset_kernel(lane_operands)
    return _branch_kernel(mn, lane_operands)


def memory_operands(mn: str) -> np.ndarray:
    """(MAX_UTHREADS, STRIDE) bytes of per-µthread operands for ``mn``."""
    rng = np.random.default_rng(sum(map(ord, mn)) + 7)
    n = MAX_UTHREADS
    op = OPCODES[mn].op_class
    if op is OpClass.BRANCH:
        a = np.asarray(_INT_EDGES)[rng.integers(0, len(_INT_EDGES), (n, 16))]
        b = np.asarray(_INT_EDGES)[rng.integers(0, len(_INT_EDGES), (n, 16))]
        b = np.where(rng.random((n, 16)) < 0.3, a, b)
        words = np.stack([a, b], axis=-1).reshape(n, 32).astype(np.int64)
    elif op is OpClass.VSET:
        words = np.asarray(_AVL_EDGES, dtype=np.int64)[
            rng.integers(0, len(_AVL_EDGES), (n, 32))]
    elif mn == "fsw":
        # the specification packs with ``struct``, which rejects finite
        # values outside the float32 range
        floats = _pick(rng, _FLOAT_EDGES + [np.inf, -np.inf, np.nan, 1e-45],
                       rng.normal(0.0, 1e6, (n, 32)))
        words = floats.view(np.int64)
    else:
        raw = rng.integers(0, 256, (n, STRIDE), dtype=np.uint8)
        edge = np.array([0x00, 0x7F, 0x80, 0xFF],
                        dtype=np.uint8)[rng.integers(0, 4, (n, STRIDE))]
        return np.where(rng.random((n, STRIDE)) < 0.5, edge, raw)
    return np.ascontiguousarray(words).view(np.uint8).reshape(n, STRIDE)


def _branch_table() -> np.ndarray:
    a, b = np.meshgrid(_BRANCH_EDGES, _BRANCH_EDGES, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=-1).astype(np.int64)


def _memory_run(mn: str, backend: str, n: int, lane_operands: bool):
    table = (_branch_table() if OPCODES[mn].op_class is OpClass.BRANCH
             and not lane_operands else None)
    return run_kernel(memory_control_kernel(mn, lane_operands),
                      memory_operands(mn), backend, n, table)


@functools.lru_cache(maxsize=None)
def _memory_reference(mn: str, lane_operands: bool) -> np.ndarray:
    n = max(MEMORY_WIDTHS.values())
    _, produced = _memory_run(mn, "interpreter", n, lane_operands)
    return produced


@pytest.mark.parametrize("engine", sorted(MEMORY_WIDTHS))
@pytest.mark.parametrize("mn", MEMORY_CONTROL)
def test_memory_control_engine_matches_interpreter(mn, engine):
    n = MEMORY_WIDTHS[engine]
    _, ran, idle = ENGINES[engine]
    lane_operands = engine != "uniform" and _has_variants(mn)
    platform, got = _memory_run(mn, "batched", n, lane_operands)
    stats = platform.stats
    assert stats.get(ran) == 1, f"{mn} did not run on the {engine} engine"
    for counter in idle:
        assert stats.get(counter, 0.0) == 0, counter
    want = _memory_reference(mn, lane_operands)[:n]
    assert np.array_equal(got, want), _first_mismatch(got, want)
