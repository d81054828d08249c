"""Tests for IR types, values and operand groups."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.core.ir.types import FLAG, IntType, u64, u128
from repro.core.ir.values import Const, Group, NameGenerator, Var, as_group
from repro.errors import IRError


class TestIntType:
    def test_str(self):
        assert str(IntType(256)) == "u256"

    def test_mask(self):
        assert IntType(8).mask == 0xFF

    def test_fits(self):
        assert u64.fits(2**64 - 1)
        assert not u64.fits(2**64)
        assert not u64.fits(-1)

    def test_half_and_double(self):
        assert IntType(256).half() == u128
        assert u64.double() == u128

    def test_half_of_odd_width_rejected(self):
        with pytest.raises(IRError):
            IntType(65).half()

    def test_is_machine(self):
        assert u64.is_machine(64)
        assert not u128.is_machine(64)
        assert FLAG.is_flag()

    def test_non_positive_width_rejected(self):
        with pytest.raises(IRError):
            IntType(0)


class TestVarConst:
    def test_var_str(self):
        assert str(Var("x", u64)) == "x:u64"

    def test_var_requires_name(self):
        with pytest.raises(IRError):
            Var("", u64)

    def test_effective_bits_range_checked(self):
        with pytest.raises(IRError):
            Var("x", u64, effective_bits=65)
        assert Var("x", u64, effective_bits=60).effective_bits == 60

    def test_effective_bits_not_part_of_equality(self):
        assert Var("x", u64, effective_bits=10) == Var("x", u64)

    def test_const_fits_type(self):
        with pytest.raises(IRError):
            Const(256, IntType(8))
        assert Const(255, IntType(8)).value == 255


class TestGroup:
    def test_requires_parts(self):
        with pytest.raises(IRError):
            Group(())

    def test_str_single_and_multi(self):
        x = Var("x", u64)
        assert str(Group((x,))) == "x:u64"
        assert str(Group((x, Const(1, u64)))).startswith("[")

    def test_bits(self):
        group = Group((Var("c", FLAG), Var("lo", u64)))
        assert group.bits == 65
        assert group.max_part_bits == 64

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_compose_decompose_round_trip(self, value):
        group = Group((Var("hi", u64), Var("lo", u64)))
        assert group.compose(group.decompose(value)) == value

    def test_compose_checks_part_fit(self):
        group = Group((Var("hi", u64), Var("lo", u64)))
        with pytest.raises(IRError):
            group.compose([2**64, 0])

    def test_decompose_checks_total_fit(self):
        group = Group((Var("lo", u64),))
        with pytest.raises(IRError):
            group.decompose(2**64)

    def test_mixed_width_composition(self):
        # [flag, word] composes as flag * 2**64 + word.
        group = Group((Var("c", FLAG), Var("lo", u64)))
        assert group.compose([1, 5]) == (1 << 64) + 5

    def test_variables_skips_consts(self):
        group = Group((Const(0, u64), Var("lo", u64)))
        assert [v.name for v in group.variables()] == ["lo"]

    def test_as_group_coercions(self):
        x = Var("x", u64)
        assert as_group(x).parts == (x,)
        assert as_group((x, x)).parts == (x, x)
        assert as_group(Group((x,))).parts == (x,)
        with pytest.raises(IRError):
            as_group(42)


class TestNameGenerator:
    def test_fresh_uses_hint_verbatim_when_free(self):
        names = NameGenerator()
        assert names.fresh("x_0") == "x_0"
        assert names.fresh("x_0") != "x_0"

    def test_reserved_names_not_reissued(self):
        names = NameGenerator()
        names.reserve("t0")
        assert names.fresh() != "t0"

    def test_all_names_unique(self):
        names = NameGenerator()
        issued = {names.fresh("v") for _ in range(100)}
        assert len(issued) == 100

    def test_names_are_interned(self):
        # Generated code objects then share the IR's name strings.
        names = NameGenerator()
        hinted = names.fresh("".join(["lim", "b"]))
        suffixed = names.fresh("limb")
        assert hinted is sys.intern("limb")
        assert suffixed is sys.intern("limb0")
