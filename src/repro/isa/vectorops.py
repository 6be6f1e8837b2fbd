"""Vectorizable per-op semantics shared by the numpy execution engines.

The scalar executor (:mod:`repro.isa.executor`) defines what every
mnemonic *means* one µthread at a time.  The two vectorized engines — the
launch-uniform batched walk (:mod:`repro.exec.batched`) and the masked
SIMT walk (:mod:`repro.exec.simt`) — need the same semantics over numpy
*lane arrays*.  This module is the single home for those array-level
primitives so the engines cannot drift apart:

* bit-pattern helpers (sign extension, IEEE-754 reinterpretation,
  little-endian byte (de)serialization) that operate on uint64 element
  matrices,
* op tables keyed by mnemonic whose lambdas accept numpy arrays and
  reproduce the scalar executor's wrap/truncate/compare semantics
  element-wise — including the RISC-V division edge cases (divide by
  zero, INT64_MIN / -1) and ``mulhu``'s 128-bit upper half,
* the memory-op metadata (access sizes, AMO op/width/float tables)
  re-exported from the scalar executor so there is exactly one source of
  truth for what ``amoadd.w`` or ``fld`` does.

Everything here is stateless and mask-agnostic: callers decide which
lanes participate and how results merge into register state.
"""

from __future__ import annotations

import numpy as np

# One source of truth for memory-op metadata: the scalar executor's
# tables, re-exported under their public names.
from repro.isa.executor import (  # noqa: F401  (re-exports)
    AMO_OPS,
    FP_LOADS,
    FP_STORES,
    LOAD_SIGNED,
    LOAD_UNSIGNED,
    STORES,
)


class UnsupportedVectorOp(Exception):
    """An operation the vectorized primitives cannot express.

    Engines translate this into their per-launch fallback (the scalar
    interpreter executes the launch instead), so raising it is always
    safe — it can cost time, never correctness.
    """


# ---------------------------------------------------------------------------
# bit-pattern helpers (uint64 element matrices)
# ---------------------------------------------------------------------------


def sign_extend(patterns: np.ndarray, sew: int) -> np.ndarray:
    """uint64 element patterns -> sign-extended int64 values."""
    vals = patterns.astype(np.int64)
    if sew == 64:
        return vals
    shift = np.int64(64 - sew)
    return (vals << shift) >> shift


def to_pattern(vals, sew: int) -> np.ndarray:
    """Wrap (possibly signed) values into uint64 patterns of width sew."""
    out = np.asarray(vals).astype(np.int64).astype(np.uint64)
    if sew < 64:
        out = out & np.uint64((1 << sew) - 1)
    return out


def bits_to_float(patterns: np.ndarray, sew: int) -> np.ndarray:
    p = np.ascontiguousarray(patterns, dtype=np.uint64)
    if sew == 64:
        return p.view(np.float64)
    if sew == 32:
        return p.astype(np.uint32).view(np.float32).astype(np.float64)
    raise UnsupportedVectorOp(f"no float interpretation for SEW {sew}")


def float_to_bits(vals, sew: int) -> np.ndarray:
    v = np.ascontiguousarray(vals, dtype=np.float64)
    if sew == 64:
        return v.view(np.uint64).copy()
    if sew == 32:
        return np.ascontiguousarray(v.astype(np.float32)).view(
            np.uint32).astype(np.uint64)
    raise UnsupportedVectorOp(f"no float representation for SEW {sew}")


_LE_VIEW_DTYPES = {1: np.dtype("u1"), 2: np.dtype("<u2"),
                   4: np.dtype("<u4"), 8: np.dtype("<u8")}


def from_le_bytes(raw: np.ndarray) -> np.ndarray:
    """(..., size) uint8 -> (...,) uint64, little endian."""
    size = raw.shape[-1]
    dtype = _LE_VIEW_DTYPES.get(size)
    if dtype is not None:
        # one reinterpreting view + widen instead of a per-byte loop
        contiguous = np.ascontiguousarray(raw).reshape(-1, size)
        return contiguous.view(dtype).reshape(raw.shape[:-1]).astype(
            np.uint64)
    out = np.zeros(raw.shape[:-1], dtype=np.uint64)
    for i in range(size):
        out |= raw[..., i].astype(np.uint64) << np.uint64(8 * i)
    return out


def to_le_bytes(vals, size: int) -> np.ndarray:
    """(...,) uint64 -> (..., size) uint8, little endian."""
    v = np.asarray(vals, dtype=np.uint64)
    dtype = _LE_VIEW_DTYPES.get(size)
    if dtype is not None:
        narrowed = np.ascontiguousarray(v.astype(dtype)).reshape(-1)
        return narrowed.view(np.uint8).reshape(v.shape + (size,))
    out = np.empty(v.shape + (size,), dtype=np.uint8)
    for i in range(size):
        out[..., i] = (v >> np.uint64(8 * i)).astype(np.uint8)
    return out


def per_thread(arr: np.ndarray) -> np.ndarray:
    """Align a per-thread scalar (n,) with (..., vl) element matrices."""
    a = np.asarray(arr)
    return a[:, None] if a.ndim == 1 else a


# ---------------------------------------------------------------------------
# scalar integer ALU (int64 lane arrays, RISC-V wrap semantics)
# ---------------------------------------------------------------------------


def _np_srl(a, b):
    sh = (b & np.int64(63)).astype(np.uint64)
    return (a.astype(np.uint64) >> sh).astype(np.int64)


def _magnitudes(a: np.ndarray) -> np.ndarray:
    # |INT64_MIN| overflows int64; the wrap through uint64 lands on 2**63,
    # which is the correct magnitude.
    return np.abs(a).astype(np.uint64)


def _np_div(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    mag_a, mag_b = _magnitudes(a), _magnitudes(b)
    q = mag_a // np.maximum(mag_b, np.uint64(1))
    qi = q.astype(np.int64)
    res = np.where((a < 0) != (b < 0), -qi, qi)
    return np.where(b == 0, np.int64(-1), res)


def _np_rem(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return np.where(b == 0, a, a - _np_div(a, b) * b)


def _np_divu(a, b):
    ua = np.asarray(a).astype(np.uint64)
    ub = np.asarray(b).astype(np.uint64)
    q = ua // np.maximum(ub, np.uint64(1))
    return np.where(ub == 0, ~np.uint64(0), q).astype(np.int64)


def _np_remu(a, b):
    ua = np.asarray(a).astype(np.uint64)
    ub = np.asarray(b).astype(np.uint64)
    r = ua % np.maximum(ub, np.uint64(1))
    return np.where(ub == 0, ua, r).astype(np.int64)


def _np_mulhu(a, b):
    """Upper 64 bits of the unsigned 128-bit product, via 32-bit halves."""
    ua = np.asarray(a).astype(np.uint64)
    ub = np.asarray(b).astype(np.uint64)
    mask32 = np.uint64(0xFFFFFFFF)
    a_lo, a_hi = ua & mask32, ua >> np.uint64(32)
    b_lo, b_hi = ub & mask32, ub >> np.uint64(32)
    lo_lo = a_lo * b_lo
    mid1 = a_hi * b_lo + (lo_lo >> np.uint64(32))
    mid2 = a_lo * b_hi + (mid1 & mask32)
    high = a_hi * b_hi + (mid1 >> np.uint64(32)) + (mid2 >> np.uint64(32))
    return high.astype(np.int64)


INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & np.int64(63)),
    "srl": _np_srl,
    "sra": lambda a, b: a >> (b & np.int64(63)),
    "slt": lambda a, b: (a < b).astype(np.int64),
    "sltu": lambda a, b: (a.astype(np.uint64) < b.astype(np.uint64)).astype(np.int64),
    "mul": lambda a, b: a * b,
    "mulhu": _np_mulhu,
    "div": _np_div,
    "divu": _np_divu,
    "rem": _np_rem,
    "remu": _np_remu,
}

INT_IMMOPS = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slli": "sll", "srli": "srl", "srai": "sra",
    "slti": "slt", "sltiu": "sltu",
}

def _np_fdiv(a, b):
    """The executor's ``_fp_div``: a zero divisor of either sign gives
    ``inf`` signed by the dividend alone, and ``0 / 0`` a positive NaN."""
    special = np.where(a > 0, np.inf, np.where(a < 0, -np.inf, np.nan))
    return np.where(b == 0, special, a / b)


FP_BINOPS = {
    "fadd.s": lambda a, b: a + b, "fadd.d": lambda a, b: a + b,
    "fsub.s": lambda a, b: a - b, "fsub.d": lambda a, b: a - b,
    "fmul.s": lambda a, b: a * b, "fmul.d": lambda a, b: a * b,
    "fdiv.s": _np_fdiv, "fdiv.d": _np_fdiv,
    # Python's ``max``/``min``: ``b`` wins only when strictly greater/less,
    # so ties between 0.0 and -0.0 (and NaN operands) keep ``a``
    "fmax.d": lambda a, b: np.where(b > a, b, a),
    "fmin.d": lambda a, b: np.where(b < a, b, a),
}

FP_COMPARES = {
    "flt.d": lambda a, b: (a < b).astype(np.int64),
    "fle.d": lambda a, b: (a <= b).astype(np.int64),
    "feq.d": lambda a, b: (a == b).astype(np.int64),
}

BRANCHES = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bltu": lambda a, b: a.astype(np.uint64) < b.astype(np.uint64),
    "bgeu": lambda a, b: a.astype(np.uint64) >= b.astype(np.uint64),
}

BRANCHES_Z = {
    "beqz": lambda a: a == 0,
    "bnez": lambda a: a != 0,
    "blez": lambda a: a <= 0,
    "bgez": lambda a: a >= 0,
    "bltz": lambda a: a < 0,
    "bgtz": lambda a: a > 0,
}

# ---------------------------------------------------------------------------
# vector ops (uint64 element-pattern matrices)
# ---------------------------------------------------------------------------

V_INT_BINOPS = {
    "vadd.vv": lambda a, b: a + b,
    "vsub.vv": lambda a, b: a - b,
    "vmul.vv": lambda a, b: a * b,
}

V_INT_SCALAR = {
    "vadd.vx": lambda a, s: a + s,
    "vmul.vx": lambda a, s: a * s,
    "vand.vx": lambda a, s: a & s,
}

V_INT_IMM = {
    "vadd.vi": lambda a, s: a + s,
    "vsll.vi": lambda a, s: a << s,
    "vsrl.vi": lambda a, s: a >> s,
}

V_FP_BINOPS = {
    "vfadd.vv": lambda a, b: a + b,
    "vfsub.vv": lambda a, b: a - b,
    "vfmul.vv": lambda a, b: a * b,
}

V_FP_SCALAR = {
    "vfadd.vf": lambda a, s: a + s,
    "vfmul.vf": lambda a, s: a * s,
}

V_INT_COMPARES = {
    "vmseq.vx": lambda a, s: a == s,
    "vmsne.vx": lambda a, s: a != s,
    "vmslt.vx": lambda a, s: a < s,
    "vmsle.vx": lambda a, s: a <= s,
    "vmsgt.vx": lambda a, s: a > s,
    "vmsge.vx": lambda a, s: a >= s,
}

V_FP_COMPARES = {
    "vmflt.vf": lambda a, s: a < s,
    "vmfle.vf": lambda a, s: a <= s,
    "vmfgt.vf": lambda a, s: a > s,
    "vmfge.vf": lambda a, s: a >= s,
}
