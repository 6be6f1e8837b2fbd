"""Tests for RVV semantics: vector ops, masks, reductions, gathers, vamo."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.isa.vector import (
    as_signed,
    as_unsigned,
    bits_to_float,
    float_to_bits,
    pack_elements,
    unpack_elements,
    vlmax,
)
from tests.isa.test_executor import SimpleMemory, run_program


class TestVectorHelpers:
    def test_vlmax(self):
        assert vlmax(64) == 4
        assert vlmax(32) == 8
        assert vlmax(16) == 16
        assert vlmax(8) == 32

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_signed_unsigned_roundtrip_32(self, pattern):
        assert as_unsigned(as_signed(pattern, 32), 32) == pattern

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_float_bits_roundtrip_32(self, value):
        assert bits_to_float(float_to_bits(value, 32), 32) == pytest.approx(
            value, rel=1e-6, abs=1e-30
        )

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_bits_roundtrip_64(self, value):
        assert bits_to_float(float_to_bits(value, 64), 64) == value

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                    min_size=1, max_size=8))
    def test_pack_unpack_roundtrip(self, elements):
        raw = pack_elements(elements, 64)
        assert unpack_elements(raw, 64) == elements


class TestVectorInteger:
    def test_vadd(self):
        regs, mem = run_program("""
            li x1, 0x1000
            li x2, 0x1100
            li x3, 1
            sd x3, 0(x1)
            li x3, 2
            sd x3, 8(x1)
            li x3, 3
            sd x3, 16(x1)
            li x3, 4
            sd x3, 24(x1)
            vle64.v v1, (x1)
            vadd.vv v2, v1, v1
            vse64.v v2, (x2)
            ret
        """)
        out = [struct.unpack("<q", mem.pm.read_bytes(0x1100 + 8 * i, 8))[0]
               for i in range(4)]
        assert out == [2, 4, 6, 8]

    def test_vadd_vx_and_vi(self):
        regs, _ = run_program("""
            li x5, 10
            vmv.v.x v1, x5
            li x6, 7
            vadd.vx v2, v1, x6
            vadd.vi v3, v2, 3
            vmv.x.s x7, v3
            ret
        """)
        assert regs.x[7] == 20

    def test_vsetvli_caps_vl(self):
        regs, _ = run_program("""
            li x1, 100
            vsetvli x2, x1, e64
            li x3, 2
            vsetvli x4, x3, e64
            ret
        """)
        assert regs.x[2] == 4   # VLMAX for e64
        assert regs.x[4] == 2

    def test_shift_ops(self):
        regs, _ = run_program("""
            li x1, 3
            vmv.v.x v1, x1
            vsll.vi v2, v1, 4
            vsrl.vi v3, v2, 2
            vmv.x.s x2, v2
            vmv.x.s x3, v3
            ret
        """)
        assert regs.x[2] == 48 and regs.x[3] == 12

    def test_vid(self):
        regs, _ = run_program("""
            li x1, 8
            vsetvli x0, x1, e32
            vid.v v1
            vsll.vi v1, v1, 2
            vmv.x.s x2, v1
            ret
        """)
        assert regs.x[2] == 0
        assert regs.v[1] == [0, 4, 8, 12, 16, 20, 24, 28]

    def test_vmacc(self):
        regs, _ = run_program("""
            li x1, 2
            vmv.v.x v1, x1
            li x2, 3
            vmv.v.x v2, x2
            li x3, 10
            vmv.v.x v3, x3
            vmacc.vv v3, v1, v2
            vmv.x.s x4, v3
            ret
        """)
        assert regs.x[4] == 16


class TestVectorMasksAndCompares:
    def test_compare_and_merge(self):
        regs, mem = run_program("""
            li x1, 0x1000
            li x9, 8
            vsetvli x0, x9, e32
            vid.v v1
            vmslt.vx v0, v1, x9
            li x2, 4
            vmslt.vx v0, v1, x2     // mask: [1,1,1,1,0,0,0,0]
            li x3, 99
            vmerge.vxm v2, v1, x3   // 99 where mask else identity
            ret
        """)
        assert regs.v[2] == [99, 99, 99, 99, 4, 5, 6, 7]

    def test_mask_logic(self):
        regs, _ = run_program("""
            li x9, 8
            vsetvli x0, x9, e32
            vid.v v1
            li x2, 2
            vmsge.vx v2, v1, x2
            li x3, 6
            vmslt.vx v3, v1, x3
            vmand.mm v4, v2, v3
            vmor.mm v5, v2, v3
            ret
        """)
        assert regs.v[4] == [0, 0, 1, 1, 1, 1, 0, 0]
        assert regs.v[5] == [1, 1, 1, 1, 1, 1, 1, 1]

    def test_float_compares(self):
        regs, _ = run_program("""
            li x9, 4
            vsetvli x0, x9, e64
            li x1, 3
            fcvt.d.l f1, x1
            vfmv.v.f v1, f1
            li x2, 2
            fcvt.d.l f2, x2
            vmfge.vf v2, v1, f2
            vmflt.vf v3, v1, f2
            ret
        """)
        assert regs.v[2] == [1, 1, 1, 1]
        assert regs.v[3] == [0, 0, 0, 0]


class TestVectorFP:
    def test_vfadd_vfmul(self):
        regs, _ = run_program("""
            li x9, 8
            vsetvli x0, x9, e32
            li x1, 3
            fcvt.s.l f1, x1
            vfmv.v.f v1, f1
            vfadd.vv v2, v1, v1
            vfmul.vv v3, v2, v1
            vfmv.f.s f2, v3
            ret
        """)
        assert regs.f[2] == pytest.approx(18.0)

    def test_vfmacc_vf(self):
        regs, _ = run_program("""
            li x9, 8
            vsetvli x0, x9, e32
            li x1, 2
            fcvt.s.l f1, x1
            vfmv.v.f v1, f1        // [2]*8
            li x2, 10
            fcvt.s.l f2, x2
            vfmv.v.f v2, f2        // [10]*8 accumulator
            vfmacc.vf v2, v1, f1   // 10 + 2*2
            vfmv.f.s f3, v2
            ret
        """)
        assert regs.f[3] == pytest.approx(14.0)

    def test_vfredusum(self):
        regs, _ = run_program("""
            li x9, 8
            vsetvli x0, x9, e32
            li x1, 3
            fcvt.s.l f1, x1
            vfmv.v.f v1, f1
            vmv.v.i v2, 0
            vfredusum.vs v3, v1, v2
            vfmv.f.s f2, v3
            ret
        """)
        assert regs.f[2] == pytest.approx(24.0)

    def test_vfredusum_adds_in_element_order(self):
        # compensated summation would give 1.0; the fast engines' ordered
        # loop (and RVV's sequential reading) gives 0.0
        mem = SimpleMemory()
        mem.store(0x1000, struct.pack("<3d", 1e16, 1.0, -1e16))
        regs, _ = run_program("""
            li x9, 3
            vsetvli x0, x9, e64
            li x1, 0x1000
            vle64.v v1, (x1)
            vmv.v.i v2, 0
            vfredusum.vs v3, v1, v2
            vfmv.f.s f2, v3
            ret
        """, mem=mem)
        assert regs.f[2] == 0.0


class TestVectorReductions:
    def test_vredsum_with_seed(self):
        regs, _ = run_program("""
            li x9, 4
            vsetvli x0, x9, e64
            li x1, 5
            vmv.v.x v1, x1
            li x2, 100
            vmv.s.x v2, x2
            vredsum.vs v3, v1, v2
            vmv.x.s x3, v3
            ret
        """)
        assert regs.x[3] == 120   # 4*5 + 100

    def test_vredmax_vredmin(self):
        regs, _ = run_program("""
            li x9, 8
            vsetvli x0, x9, e32
            vid.v v1
            vmv.v.i v2, 0
            vredmax.vs v3, v1, v2
            vmv.x.s x3, v3
            vmv.v.i v4, 3
            vredmin.vs v5, v1, v4
            vmv.x.s x4, v5
            ret
        """)
        assert regs.x[3] == 7
        assert regs.x[4] == 0


class TestVectorMemory:
    def test_gather(self):
        regs, mem = run_program("""
            li x1, 0x1000
            li x2, 111
            sw x2, 0(x1)
            li x2, 222
            sw x2, 40(x1)
            li x9, 2
            vsetvli x0, x9, e32
            vmv.v.i v1, 0
            li x3, 40
            vmv.v.x v2, x3
            vmv.s.x v2, x0          // offsets [0, 40]
            vluxei32.v v3, (x1), v2
            ret
        """)
        assert regs.v[3] == [111, 222]

    def test_scatter(self):
        regs, mem = run_program("""
            li x1, 0x2000
            li x9, 2
            vsetvli x0, x9, e64
            li x2, 7
            vmv.v.x v1, x2          // values
            li x3, 64
            vmv.v.x v2, x3
            vmv.s.x v2, x0          // offsets [0, 64]
            vsuxei64.v v1, (x1), v2
            ret
        """)
        assert mem.pm.read_u64(0x2000) == 7
        assert mem.pm.read_u64(0x2040) == 7

    def test_vamo_indexed_atomic_add(self):
        regs, mem = run_program("""
            li x1, 0x3000
            li x9, 4
            vsetvli x0, x9, e32
            vid.v v2
            vsll.vi v2, v2, 2       // offsets 0,4,8,12
            vmv.v.i v1, 1
            vamoadde32.v v1, (x1), v2
            vamoadde32.v v1, (x1), v2
            ret
        """)
        for i in range(4):
            assert mem.pm.read_u32(0x3000 + 4 * i) == 2

    def test_partial_vl_store(self):
        _, mem = run_program("""
            li x1, 0x4000
            li x9, 3
            vsetvli x0, x9, e32
            vmv.v.i v1, 9
            vse32.v v1, (x1)
            ret
        """)
        assert mem.pm.read_u32(0x4000) == 9
        assert mem.pm.read_u32(0x4008) == 9
        assert mem.pm.read_u32(0x400C) == 0   # beyond vl untouched
