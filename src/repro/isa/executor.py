"""Functional executor for the M2NDP RISC-V/RVV subset.

:func:`execute` runs exactly one instruction against a µthread's register
state and a :class:`MemoryInterface`, returning an :class:`ExecResult`
describing control flow and the memory accesses performed.  Timing is the
caller's job (``repro.ndp.subcore``): the executor moves real data
immediately so kernels compute correct results, while the returned access
descriptors let the timing model charge cache/DRAM/scratchpad latencies.

Atomics execute atomically here, so racy bulk-synchronous µthreads still
produce the correct reductions regardless of how the timing model
interleaves them — the same guarantee the hardware gives.
"""

from __future__ import annotations

import struct
from typing import Protocol

from repro.errors import ExecutionError
from repro.isa.encoding import Instruction, OpClass
from repro.isa.registers import UThreadRegisters, to_signed32, to_signed64, to_unsigned64
from repro.isa.vector import (
    as_signed,
    as_unsigned,
    bits_to_float,
    float_to_bits,
    pack_elements,
    unpack_elements,
    vlmax,
)


class MemoryInterface(Protocol):
    """Functional memory the executor reads and writes.

    Implementations route by virtual address (scratchpad window vs. global
    HDM) and perform translation; see ``repro.ndp.unit``.
    """

    def load(self, vaddr: int, size: int) -> bytes: ...

    def store(self, vaddr: int, data: bytes) -> None: ...

    def amo(self, op: str, vaddr: int, operand, size: int,
            is_float: bool) -> int | float: ...


class MemAccess:
    """One memory access performed by an instruction (for the timing model).

    A plain slotted class (not a dataclass): these are constructed on the
    hot path of every load/store the simulator executes.
    """

    __slots__ = ("vaddr", "size", "is_write", "is_amo")

    def __init__(self, vaddr: int, size: int, is_write: bool,
                 is_amo: bool = False) -> None:
        self.vaddr = vaddr
        self.size = size
        self.is_write = is_write
        self.is_amo = is_amo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "amo" if self.is_amo else ("st" if self.is_write else "ld")
        return f"<{kind} {self.vaddr:#x}+{self.size}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MemAccess)
            and (self.vaddr, self.size, self.is_write, self.is_amo)
            == (other.vaddr, other.size, other.is_write, other.is_amo)
        )


class ExecResult:
    """Effects of one executed instruction (slotted, hot path)."""

    __slots__ = ("accesses", "jump_to", "done")

    def __init__(self, accesses: tuple = (), jump_to: int | None = None,
                 done: bool = False) -> None:
        self.accesses = accesses
        self.jump_to = jump_to
        self.done = done


_PLAIN = ExecResult()
_DONE = ExecResult(done=True)

# ---------------------------------------------------------------------------
# scalar integer / FP ALU
# ---------------------------------------------------------------------------

_INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 63),
    "srl": lambda a, b: to_unsigned64(a) >> (b & 63),
    "sra": lambda a, b: a >> (b & 63),
    "slt": lambda a, b: int(a < b),
    "sltu": lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)),
    "mul": lambda a, b: a * b,
    "mulhu": lambda a, b: (to_unsigned64(a) * to_unsigned64(b)) >> 64,
    "div": lambda a, b: _int_div(a, b),
    "divu": lambda a, b: _unsigned_div(a, b),
    "rem": lambda a, b: _int_rem(a, b),
    "remu": lambda a, b: _unsigned_rem(a, b),
}

_INT_IMMOPS = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slli": "sll", "srli": "srl", "srai": "sra",
    "slti": "slt", "sltiu": "sltu",
}

_FP_BINOPS = {
    "fadd.s": lambda a, b: a + b, "fadd.d": lambda a, b: a + b,
    "fsub.s": lambda a, b: a - b, "fsub.d": lambda a, b: a - b,
    "fmul.s": lambda a, b: a * b, "fmul.d": lambda a, b: a * b,
    "fdiv.s": lambda a, b: _fp_div(a, b), "fdiv.d": lambda a, b: _fp_div(a, b),
    "fmax.d": max, "fmin.d": min,
}

_FP_COMPARES = {
    "flt.d": lambda a, b: int(a < b),
    "fle.d": lambda a, b: int(a <= b),
    "feq.d": lambda a, b: int(a == b),
}

_BRANCHES = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bltu": lambda a, b: to_unsigned64(a) < to_unsigned64(b),
    "bgeu": lambda a, b: to_unsigned64(a) >= to_unsigned64(b),
}

_BRANCHES_Z = {
    "beqz": lambda a: a == 0,
    "bnez": lambda a: a != 0,
    "blez": lambda a: a <= 0,
    "bgez": lambda a: a >= 0,
    "bltz": lambda a: a < 0,
    "bgtz": lambda a: a > 0,
}


def _int_div(a: int, b: int) -> int:
    if b == 0:
        return -1
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _int_rem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _int_div(a, b) * b


def _unsigned_div(a: int, b: int) -> int:
    ua, ub = to_unsigned64(a), to_unsigned64(b)
    return (1 << 64) - 1 if ub == 0 else ua // ub


def _unsigned_rem(a: int, b: int) -> int:
    ua, ub = to_unsigned64(a), to_unsigned64(b)
    return ua if ub == 0 else ua % ub


def _fp_div(a: float, b: float) -> float:
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
    return a / b


_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


# ---------------------------------------------------------------------------
# scalar memory
# ---------------------------------------------------------------------------

# Public names: these tables are the single source of truth for memory-op
# metadata (access widths, AMO op/width/float), reused by the vectorized
# engines through repro.isa.vectorops.
LOAD_SIGNED = {"lb": 1, "lh": 2, "lw": 4, "ld": 8}
LOAD_UNSIGNED = {"lbu": 1, "lhu": 2, "lwu": 4}
FP_LOADS = {"flw": 4, "fld": 8}
FP_STORES = {"fsw": 4, "fsd": 8}
STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

AMO_OPS = {
    "amoadd.w": ("add", 4, False), "amoadd.d": ("add", 8, False),
    "amoswap.d": ("swap", 8, False), "amomax.d": ("max", 8, False),
    "amomin.d": ("min", 8, False), "amomin.w": ("min", 4, False),
    "amoor.d": ("or", 8, False),
    "famoadd.s": ("add", 4, True), "famoadd.d": ("add", 8, True),
}


def _exec_scalar_alu(inst: Instruction, regs: UThreadRegisters) -> ExecResult:
    m = inst.mnemonic
    if m in _INT_BINOPS:
        result = _INT_BINOPS[m](regs.x[inst.rs1], regs.x[inst.rs2])
        regs.write_x(inst.rd, result)
    elif m in _INT_IMMOPS:
        result = _INT_BINOPS[_INT_IMMOPS[m]](regs.x[inst.rs1], inst.imm)
        regs.write_x(inst.rd, result)
    elif m in ("addw", "mulw"):
        base = "add" if m == "addw" else "mul"
        result = to_signed32(_INT_BINOPS[base](regs.x[inst.rs1], regs.x[inst.rs2]))
        regs.write_x(inst.rd, result)
    elif m == "li":
        regs.write_x(inst.rd, inst.imm)
    elif m == "lui":
        regs.write_x(inst.rd, inst.imm << 12)
    elif m == "mv":
        regs.write_x(inst.rd, regs.x[inst.rs1])
    elif m == "neg":
        regs.write_x(inst.rd, -regs.x[inst.rs1])
    elif m == "seqz":
        regs.write_x(inst.rd, int(regs.x[inst.rs1] == 0))
    elif m == "snez":
        regs.write_x(inst.rd, int(regs.x[inst.rs1] != 0))
    elif m in _FP_BINOPS:
        regs.write_f(inst.rd, _FP_BINOPS[m](regs.f[inst.rs1], regs.f[inst.rs2]))
    elif m in _FP_COMPARES:
        regs.write_x(inst.rd, _FP_COMPARES[m](regs.f[inst.rs1], regs.f[inst.rs2]))
    elif m == "fmadd.d":
        regs.write_f(
            inst.rd,
            regs.f[inst.rs1] * regs.f[inst.rs2] + regs.f[inst.rs3],
        )
    elif m == "fsqrt.d":
        value = regs.f[inst.rs1]
        if value < 0:
            raise ExecutionError("fsqrt of negative value")
        regs.write_f(inst.rd, value ** 0.5)
    elif m == "fmv.d":
        regs.write_f(inst.rd, regs.f[inst.rs1])
    elif m == "fmv.x.d":
        regs.write_x(inst.rd, _U64.unpack(_F64.pack(regs.f[inst.rs1]))[0])
    elif m == "fmv.d.x":
        regs.write_f(inst.rd, _F64.unpack(_U64.pack(to_unsigned64(regs.x[inst.rs1])))[0])
    elif m in ("fcvt.d.l", "fcvt.s.l"):
        regs.write_f(inst.rd, float(regs.x[inst.rs1]))
    elif m == "fcvt.l.d":
        regs.write_x(inst.rd, int(regs.f[inst.rs1]))
    else:  # pragma: no cover - table and dispatch kept in sync by tests
        raise ExecutionError(f"unhandled ALU mnemonic {m}")
    return _PLAIN


def _exec_load(inst: Instruction, regs: UThreadRegisters,
               mem: MemoryInterface) -> ExecResult:
    addr = to_unsigned64(regs.x[inst.rs1] + inst.imm)
    m = inst.mnemonic
    if m in FP_LOADS:
        size = FP_LOADS[m]
        raw = mem.load(addr, size)
        value = _F32.unpack(raw)[0] if size == 4 else _F64.unpack(raw)[0]
        regs.write_f(inst.rd, value)
    else:
        size = LOAD_SIGNED.get(m) or LOAD_UNSIGNED[m]
        raw = mem.load(addr, size)
        value = int.from_bytes(raw, "little", signed=m in LOAD_SIGNED)
        regs.write_x(inst.rd, value)
    return ExecResult(accesses=(MemAccess(addr, size, is_write=False),))


def _exec_store(inst: Instruction, regs: UThreadRegisters,
                mem: MemoryInterface) -> ExecResult:
    addr = to_unsigned64(regs.x[inst.rs1] + inst.imm)
    m = inst.mnemonic
    if m in FP_STORES:
        size = FP_STORES[m]
        value = regs.f[inst.rs2]
        raw = _F32.pack(value) if size == 4 else _F64.pack(value)
    else:
        size = STORES[m]
        raw = (regs.x[inst.rs2] & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    mem.store(addr, raw)
    return ExecResult(accesses=(MemAccess(addr, size, is_write=True),))


def _exec_amo(inst: Instruction, regs: UThreadRegisters,
              mem: MemoryInterface) -> ExecResult:
    op, size, is_float = AMO_OPS[inst.mnemonic]
    addr = to_unsigned64(regs.x[inst.rs1] + inst.imm)
    if is_float:
        operand = regs.f[inst.rs2]
        old = mem.amo(op, addr, operand, size, True)
        regs.write_f(inst.rd, old)
    else:
        operand = regs.x[inst.rs2]
        if size == 4:
            operand = to_signed32(operand)
        old = mem.amo(op, addr, operand, size, False)
        regs.write_x(inst.rd, old)
    return ExecResult(accesses=(MemAccess(addr, size, is_write=True, is_amo=True),))


def _exec_branch(inst: Instruction, regs: UThreadRegisters) -> ExecResult:
    m = inst.mnemonic
    if m == "j":
        return ExecResult(jump_to=inst.target)
    if m in _BRANCHES:
        taken = _BRANCHES[m](regs.x[inst.rs1], regs.x[inst.rs2])
    else:
        taken = _BRANCHES_Z[m](regs.x[inst.rs1])
    return ExecResult(jump_to=inst.target) if taken else _PLAIN


# ---------------------------------------------------------------------------
# vector
# ---------------------------------------------------------------------------

_V_INT_BINOPS = {
    "vadd.vv": lambda a, b: a + b,
    "vsub.vv": lambda a, b: a - b,
    "vmul.vv": lambda a, b: a * b,
}

_V_INT_SCALAR = {
    "vadd.vx": lambda a, s: a + s,
    "vmul.vx": lambda a, s: a * s,
    "vand.vx": lambda a, s: a & s,
}

_V_INT_IMM = {
    "vadd.vi": lambda a, s: a + s,
    "vsll.vi": lambda a, s: a << s,
    "vsrl.vi": lambda a, s: a >> s,
}

_V_FP_BINOPS = {
    "vfadd.vv": lambda a, b: a + b,
    "vfsub.vv": lambda a, b: a - b,
    "vfmul.vv": lambda a, b: a * b,
}

_V_FP_SCALAR = {
    "vfadd.vf": lambda a, s: a + s,
    "vfmul.vf": lambda a, s: a * s,
}

_V_INT_COMPARES = {
    "vmseq.vx": lambda a, s: int(a == s),
    "vmsne.vx": lambda a, s: int(a != s),
    "vmslt.vx": lambda a, s: int(a < s),
    "vmsle.vx": lambda a, s: int(a <= s),
    "vmsgt.vx": lambda a, s: int(a > s),
    "vmsge.vx": lambda a, s: int(a >= s),
}

_V_FP_COMPARES = {
    "vmflt.vf": lambda a, s: int(a < s),
    "vmfle.vf": lambda a, s: int(a <= s),
    "vmfgt.vf": lambda a, s: int(a > s),
    "vmfge.vf": lambda a, s: int(a >= s),
}


def _vl_of(regs: UThreadRegisters, sew: int) -> int:
    return regs.effective_vl(vlmax(sew))


def _read_v(regs: UThreadRegisters, idx: int, count: int) -> list[int]:
    values = regs.v[idx]
    if len(values) < count:
        values = values + [0] * (count - len(values))
    return values[:count]


def _exec_vset(inst: Instruction, regs: UThreadRegisters) -> ExecResult:
    sew = inst.imm
    requested = regs.x[inst.rs1]
    if requested < 0:
        raise ExecutionError(f"vsetvli with negative AVL {requested}")
    vl = min(requested, vlmax(sew))
    regs.sew = sew
    regs.vl = vl
    regs.write_x(inst.rd, vl)
    return _PLAIN


def _exec_vload(inst: Instruction, regs: UThreadRegisters,
                mem: MemoryInterface) -> ExecResult:
    sew = inst.size * 8
    vl = _vl_of(regs, sew)
    if vl == 0:
        regs.write_v(inst.rd, [])
        return _PLAIN
    addr = to_unsigned64(regs.x[inst.rs1] + inst.imm)
    raw = mem.load(addr, vl * inst.size)
    regs.write_v(inst.rd, unpack_elements(raw, sew))
    return ExecResult(accesses=(MemAccess(addr, vl * inst.size, is_write=False),))


def _exec_vstore(inst: Instruction, regs: UThreadRegisters,
                 mem: MemoryInterface) -> ExecResult:
    sew = inst.size * 8
    vl = _vl_of(regs, sew)
    if vl == 0:
        return _PLAIN
    addr = to_unsigned64(regs.x[inst.rs1] + inst.imm)
    values = _read_v(regs, inst.rd, vl)
    mem.store(addr, pack_elements(values, sew))
    return ExecResult(accesses=(MemAccess(addr, vl * inst.size, is_write=True),))


def _exec_vgather(inst: Instruction, regs: UThreadRegisters,
                  mem: MemoryInterface) -> ExecResult:
    """Indexed load: vd[i] = mem[x[rs1] + offsets[i]] (offsets in bytes)."""
    sew = inst.size * 8
    vl = _vl_of(regs, sew)
    base = to_unsigned64(regs.x[inst.rs1])
    offsets = _read_v(regs, inst.rs2, vl)
    out: list[int] = []
    accesses: list[MemAccess] = []
    for off in offsets:
        addr = to_unsigned64(base + off)
        raw = mem.load(addr, inst.size)
        out.append(int.from_bytes(raw, "little"))
        accesses.append(MemAccess(addr, inst.size, is_write=False))
    regs.write_v(inst.rd, out)
    return ExecResult(accesses=tuple(accesses))


def _exec_vscatter(inst: Instruction, regs: UThreadRegisters,
                   mem: MemoryInterface) -> ExecResult:
    sew = inst.size * 8
    vl = _vl_of(regs, sew)
    base = to_unsigned64(regs.x[inst.rs1])
    offsets = _read_v(regs, inst.rs2, vl)
    values = _read_v(regs, inst.rd, vl)
    accesses: list[MemAccess] = []
    for off, value in zip(offsets, values):
        addr = to_unsigned64(base + off)
        mem.store(addr, pack_elements([value], sew))
        accesses.append(MemAccess(addr, inst.size, is_write=True))
    return ExecResult(accesses=tuple(accesses))


def _exec_vamo(inst: Instruction, regs: UThreadRegisters,
               mem: MemoryInterface) -> ExecResult:
    """Indexed atomic add (v-amo): mem[base + off[i]] += vs3[i]."""
    sew = inst.size * 8
    vl = _vl_of(regs, sew)
    base = to_unsigned64(regs.x[inst.rs1])
    offsets = _read_v(regs, inst.rs2, vl)
    values = _read_v(regs, inst.rd, vl)
    accesses: list[MemAccess] = []
    for off, value in zip(offsets, values):
        addr = to_unsigned64(base + off)
        mem.amo("add", addr, as_signed(value, sew), inst.size, False)
        accesses.append(MemAccess(addr, inst.size, is_write=True, is_amo=True))
    return ExecResult(accesses=tuple(accesses))


def _exec_valu(inst: Instruction, regs: UThreadRegisters) -> ExecResult:
    m = inst.mnemonic
    sew = regs.sew
    vl = _vl_of(regs, sew)

    if m in _V_INT_BINOPS:
        op = _V_INT_BINOPS[m]
        va = _read_v(regs, inst.rs1, vl)
        vb = _read_v(regs, inst.rs2, vl)
        regs.write_v(inst.rd, [
            as_unsigned(op(as_signed(a, sew), as_signed(b, sew)), sew)
            for a, b in zip(va, vb)
        ])
    elif m in _V_INT_SCALAR:
        op = _V_INT_SCALAR[m]
        va = _read_v(regs, inst.rs1, vl)
        scalar = regs.x[inst.rs2]
        regs.write_v(inst.rd, [
            as_unsigned(op(as_signed(a, sew), scalar), sew) for a in va
        ])
    elif m in _V_INT_IMM:
        op = _V_INT_IMM[m]
        va = _read_v(regs, inst.rs1, vl)
        regs.write_v(inst.rd, [
            as_unsigned(op(as_signed(a, sew), inst.imm), sew) for a in va
        ])
    elif m == "vmacc.vv":
        va = _read_v(regs, inst.rs1, vl)
        vb = _read_v(regs, inst.rs2, vl)
        vd = _read_v(regs, inst.rd, vl)
        regs.write_v(inst.rd, [
            as_unsigned(as_signed(d, sew) + as_signed(a, sew) * as_signed(b, sew), sew)
            for d, a, b in zip(vd, va, vb)
        ])
    elif m in _V_FP_BINOPS:
        op = _V_FP_BINOPS[m]
        va = _read_v(regs, inst.rs1, vl)
        vb = _read_v(regs, inst.rs2, vl)
        regs.write_v(inst.rd, [
            float_to_bits(op(bits_to_float(a, sew), bits_to_float(b, sew)), sew)
            for a, b in zip(va, vb)
        ])
    elif m in _V_FP_SCALAR:
        op = _V_FP_SCALAR[m]
        va = _read_v(regs, inst.rs1, vl)
        scalar = regs.f[inst.rs2]
        regs.write_v(inst.rd, [
            float_to_bits(op(bits_to_float(a, sew), scalar), sew) for a in va
        ])
    elif m == "vfmacc.vf":
        va = _read_v(regs, inst.rs1, vl)
        scalar = regs.f[inst.rs2]
        vd = _read_v(regs, inst.rd, vl)
        regs.write_v(inst.rd, [
            float_to_bits(
                bits_to_float(d, sew) + bits_to_float(a, sew) * scalar, sew
            )
            for d, a in zip(vd, va)
        ])
    elif m == "vfmacc.vv":
        va = _read_v(regs, inst.rs1, vl)
        vb = _read_v(regs, inst.rs2, vl)
        vd = _read_v(regs, inst.rd, vl)
        regs.write_v(inst.rd, [
            float_to_bits(
                bits_to_float(d, sew) + bits_to_float(a, sew) * bits_to_float(b, sew),
                sew,
            )
            for d, a, b in zip(vd, va, vb)
        ])
    elif m in _V_INT_COMPARES:
        op = _V_INT_COMPARES[m]
        va = _read_v(regs, inst.rs1, vl)
        scalar = regs.x[inst.rs2]
        regs.write_v(inst.rd, [op(as_signed(a, sew), scalar) for a in va])
    elif m in _V_FP_COMPARES:
        op = _V_FP_COMPARES[m]
        va = _read_v(regs, inst.rs1, vl)
        scalar = regs.f[inst.rs2]
        regs.write_v(inst.rd, [op(bits_to_float(a, sew), scalar) for a in va])
    elif m == "vmand.mm":
        va = _read_v(regs, inst.rs1, vl)
        vb = _read_v(regs, inst.rs2, vl)
        regs.write_v(inst.rd, [int(bool(a) and bool(b)) for a, b in zip(va, vb)])
    elif m == "vmor.mm":
        va = _read_v(regs, inst.rs1, vl)
        vb = _read_v(regs, inst.rs2, vl)
        regs.write_v(inst.rd, [int(bool(a) or bool(b)) for a, b in zip(va, vb)])
    elif m == "vmerge.vxm":
        va = _read_v(regs, inst.rs1, vl)
        scalar = as_unsigned(regs.x[inst.rs2], sew)
        mask = _read_v(regs, 0, vl)
        regs.write_v(inst.rd, [
            scalar if mask[i] else va[i] for i in range(vl)
        ])
    elif m == "vmerge.vim":
        va = _read_v(regs, inst.rs1, vl)
        value = as_unsigned(inst.imm, sew)
        mask = _read_v(regs, 0, vl)
        regs.write_v(inst.rd, [
            value if mask[i] else va[i] for i in range(vl)
        ])
    elif m == "vmv.v.i":
        regs.write_v(inst.rd, [as_unsigned(inst.imm, sew)] * vl)
    elif m == "vmv.v.x":
        regs.write_v(inst.rd, [as_unsigned(regs.x[inst.rs1], sew)] * vl)
    elif m == "vmv.v.v":
        regs.write_v(inst.rd, list(_read_v(regs, inst.rs1, vl)))
    elif m == "vid.v":
        regs.write_v(inst.rd, list(range(vl)))
    elif m == "vfmv.v.f":
        regs.write_v(inst.rd, [float_to_bits(regs.f[inst.rs1], sew)] * vl)
    elif m == "vmv.x.s":
        values = regs.v[inst.rs1]
        regs.write_x(inst.rd, as_signed(values[0], sew) if values else 0)
    elif m == "vmv.s.x":
        values = list(regs.v[inst.rd])
        if not values:
            values = [0]
        values[0] = as_unsigned(regs.x[inst.rs1], sew)
        regs.write_v(inst.rd, values)
    elif m == "vfmv.f.s":
        values = regs.v[inst.rs1]
        regs.write_f(inst.rd, bits_to_float(values[0], sew) if values else 0.0)
    else:  # pragma: no cover
        raise ExecutionError(f"unhandled vector mnemonic {m}")
    return _PLAIN


def _exec_vred(inst: Instruction, regs: UThreadRegisters) -> ExecResult:
    """Reductions: vd[0] = reduce(va) OP-combined with vb[0] (RVV .vs)."""
    m = inst.mnemonic
    sew = regs.sew
    vl = _vl_of(regs, sew)
    va = _read_v(regs, inst.rs1, vl)
    vb = _read_v(regs, inst.rs2, max(vl, 1))
    seed = vb[0] if vb else 0

    if m == "vredsum.vs":
        total = as_signed(seed, sew) + sum(as_signed(a, sew) for a in va)
        result = as_unsigned(total, sew)
    elif m == "vredmax.vs":
        result = as_unsigned(
            max([as_signed(seed, sew)] + [as_signed(a, sew) for a in va]), sew
        )
    elif m == "vredmin.vs":
        result = as_unsigned(
            min([as_signed(seed, sew)] + [as_signed(a, sew) for a in va]), sew
        )
    elif m == "vfredusum.vs":
        # ordered: ``sum`` compensates float sums from Python 3.12 on
        total = 0.0
        for a in va:
            total += bits_to_float(a, sew)
        result = float_to_bits(bits_to_float(seed, sew) + total, sew)
    elif m == "vfredmax.vs":
        values = [bits_to_float(seed, sew)] + [bits_to_float(a, sew) for a in va]
        result = float_to_bits(max(values), sew)
    else:  # pragma: no cover
        raise ExecutionError(f"unhandled reduction {m}")
    regs.write_v(inst.rd, [result])
    return _PLAIN


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

_DISPATCH = {
    OpClass.ALU: lambda inst, regs, mem: _exec_scalar_alu(inst, regs),
    OpClass.VALU_OP: lambda inst, regs, mem: _exec_valu(inst, regs),
    OpClass.BRANCH: lambda inst, regs, mem: _exec_branch(inst, regs),
    OpClass.LOAD: _exec_load,
    OpClass.STORE: _exec_store,
    OpClass.AMO: _exec_amo,
    OpClass.VLOAD: _exec_vload,
    OpClass.VSTORE: _exec_vstore,
    OpClass.VGATHER: _exec_vgather,
    OpClass.VSCATTER: _exec_vscatter,
    OpClass.VAMO: _exec_vamo,
    OpClass.VRED: lambda inst, regs, mem: _exec_vred(inst, regs),
    OpClass.VSET: lambda inst, regs, mem: _exec_vset(inst, regs),
    OpClass.FENCE: lambda inst, regs, mem: _PLAIN,
    OpClass.RET: lambda inst, regs, mem: _DONE,
}


def execute(inst: Instruction, regs: UThreadRegisters,
            mem: MemoryInterface) -> ExecResult:
    """Execute one instruction; mutate ``regs``/memory; report effects."""
    return _DISPATCH[inst.op_class](inst, regs, mem)
