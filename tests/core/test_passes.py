"""Tests for the optimization passes: the value-numbering sweep (folding,
simplification, copy propagation, CSE) and DCE."""

import pytest

from repro.core.codegen.python_exec import compile_kernel
from repro.core.ir.builder import KernelBuilder
from repro.core.ir.interp import interpret
from repro.core.ir.ops import OpKind
from repro.core.ir.values import Const, Group
from repro.core.passes import DEFAULT_PIPELINE, eliminate_dead_code, optimize, value_number
from repro.core.rewrite.legalize import legalize
from repro.core.rewrite.options import RewriteOptions
from repro.errors import IRError


def op_histogram(kernel):
    counts = {}
    for statement in kernel.body:
        counts[statement.op] = counts.get(statement.op, 0) + 1
    return counts


class TestConstantFolding:
    def test_fully_constant_chain_collapses(self):
        builder = KernelBuilder("fold")
        a = builder.constant(7, 64)
        b = builder.constant(9, 64)
        total = builder.add(a, b, result_bits=64)
        product = builder.mul(total, builder.constant(3, 64))
        builder.output("z", product)
        kernel = builder.build()
        folded = value_number(kernel)
        # Only the output mov survives, carrying the constant (7 + 9) * 3.
        (statement,) = folded.body
        assert statement.op is OpKind.MOV
        assert statement.operands[0].parts == (Const(48, statement.dests.parts[0].type),)

    def test_zero_modulus_raises(self):
        builder = KernelBuilder("zero_q")
        constant = builder.constant(3, 64)
        builder.output("z", builder.addmod(constant, constant, builder.constant(0, 64)))
        with pytest.raises(IRError, match="zero modulus"):
            value_number(builder.build())

    def test_overflowing_fold_raises(self):
        builder = KernelBuilder("overflow")
        dest = builder.fresh(64)
        builder.emit(OpKind.ADD, dest, [builder.constant((1 << 64) - 1, 64), builder.constant(1, 64)])
        builder.output("z", dest)
        with pytest.raises(IRError, match="overflowed"):
            value_number(builder.build())

    def test_folding_preserves_semantics_on_pruned_kernel(self):
        builder = KernelBuilder("pruned")
        x = builder.param("x", 256, 130)
        y = builder.param("y", 256, 130)
        q = builder.param("q", 256, 130)
        builder.output("z", builder.addmod(x, y, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        folded = value_number(legalized)
        compiled = compile_kernel(folded)
        q_value = (1 << 130) - 5
        assert compiled(x=q_value - 1, y=q_value - 2, q=q_value)["z"] == (2 * q_value - 3) % q_value

    def test_constant_comparison_folds(self):
        builder = KernelBuilder("cmp")
        flag = builder.compare(OpKind.LT, builder.constant(3, 64), builder.constant(5, 64))
        builder.output("z", builder.select(flag, builder.constant(1, 64), builder.constant(0, 64)))
        folded = value_number(builder.build())
        assert all(s.op is OpKind.MOV for s in folded.body)


class TestSimplify:
    def test_add_zero_becomes_mov(self):
        builder = KernelBuilder("s")
        x = builder.param("x", 64)
        builder.output("z", builder.add(x, builder.constant(0, 64), result_bits=64))
        simplified = value_number(builder.build())
        assert op_histogram(simplified).get(OpKind.ADD, 0) == 0

    def test_mul_by_zero_and_one(self):
        builder = KernelBuilder("s2")
        x = builder.param("x", 64)
        zero_product = builder.mul(x, builder.constant(0, 64))
        one_product = builder.mul(x, builder.constant(1, 64))
        builder.output("a", zero_product)
        builder.output("b", one_product)
        simplified = value_number(builder.build())
        assert op_histogram(simplified).get(OpKind.MUL, 0) == 0

    def test_select_with_constant_condition(self):
        builder = KernelBuilder("s3")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        builder.output("z", builder.select(builder.constant(1, 1), x, y))
        simplified = value_number(builder.build())
        assert op_histogram(simplified).get(OpKind.SELECT, 0) == 0

    def test_or_with_zero(self):
        builder = KernelBuilder("s4")
        x = builder.param("x", 1)
        flag = builder.logic if hasattr(builder, "logic") else None
        # Build the OR statement directly through emit.
        dest = builder.fresh(1, "f")
        builder.emit(OpKind.OR, dest, [x, builder.constant(0, 1)])
        builder.output("z", dest)
        simplified = value_number(builder.build())
        assert op_histogram(simplified).get(OpKind.OR, 0) == 0

    def test_semantics_preserved(self):
        builder = KernelBuilder("s5")
        x = builder.param("x", 128)
        y = builder.param("y", 128)
        q = builder.param("q", 128)
        builder.output("z", builder.addmod(x, y, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        optimized = optimize(legalized)
        compiled_raw = compile_kernel(legalized)
        compiled_opt = compile_kernel(optimized)
        q_value = (1 << 124) - 59
        for a, b in [(1, 2), (q_value - 1, q_value - 1), (0, 0), (q_value // 2, q_value // 2 + 1)]:
            assert compiled_raw(x=a, y=b, q=q_value) == compiled_opt(x=a, y=b, q=q_value)


class TestCopyPropagationAndDCE:
    def test_copies_forwarded_and_removed(self):
        builder = KernelBuilder("cp")
        x = builder.param("x", 64)
        copy1 = builder.mov(x)
        copy2 = builder.mov(copy1)
        builder.output("z", builder.add(copy2, copy2, result_bits=128))
        kernel = builder.build()
        cleaned = value_number(kernel)
        # Both intermediate copies should be gone; the add reads x directly.
        assert op_histogram(cleaned).get(OpKind.MOV, 0) == 1  # only the output mov
        add = next(s for s in cleaned.body if s.op is OpKind.ADD)
        assert {part.name for group in add.operands for part in group.variables()} == {"x"}

    def test_output_copies_never_dropped(self):
        builder = KernelBuilder("cp2")
        x = builder.param("x", 64)
        builder.output("z", builder.mov(x))
        cleaned = value_number(builder.build())
        assert [o.name for o in cleaned.outputs] == ["z"]
        assert any("z" in [d.name for d in s.defined_vars()] for s in cleaned.body)

    def test_dce_removes_unused_computation(self):
        builder = KernelBuilder("dce")
        x = builder.param("x", 64)
        builder.mul(x, x)  # dead
        builder.output("z", builder.mov(x))
        cleaned = eliminate_dead_code(builder.build())
        assert op_histogram(cleaned).get(OpKind.MUL, 0) == 0

    def test_dce_keeps_partially_used_destinations(self):
        builder = KernelBuilder("dce2")
        x = builder.param("x", 64)
        hi = builder.fresh(64, "hi")
        lo = builder.fresh(64, "lo")
        builder.emit(OpKind.MUL, Group((hi, lo)), [x, x])
        builder.output("z", builder.mov(lo))
        cleaned = eliminate_dead_code(builder.build())
        assert op_histogram(cleaned).get(OpKind.MUL, 0) == 1


class TestCSE:
    def test_duplicate_comparisons_merged(self):
        builder = KernelBuilder("cse")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        first = builder.compare(OpKind.LT, x, y)
        second = builder.compare(OpKind.LT, x, y)
        builder.output("a", first)
        builder.output("b", second)
        deduplicated = value_number(builder.build())
        assert op_histogram(deduplicated)[OpKind.LT] == 1

    def test_different_operands_not_merged(self):
        builder = KernelBuilder("cse2")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        builder.output("a", builder.compare(OpKind.LT, x, y))
        builder.output("b", builder.compare(OpKind.LT, y, x))
        deduplicated = value_number(builder.build())
        assert op_histogram(deduplicated)[OpKind.LT] == 2

    def test_shift_attrs_distinguish(self):
        builder = KernelBuilder("cse3")
        x = builder.param("x", 64)
        builder.output("a", builder.shr(x, 3, 64))
        builder.output("b", builder.shr(x, 4, 64))
        deduplicated = value_number(builder.build())
        assert op_histogram(deduplicated)[OpKind.SHR] == 2


class TestOptimizePipeline:
    @pytest.mark.parametrize("bits,modulus_bits", [(128, 124), (256, 252), (512, 380)])
    def test_never_adds_statements_and_preserves_semantics(self, bits, modulus_bits):
        builder = KernelBuilder(f"pipeline_{bits}")
        x = builder.param("x", bits, modulus_bits)
        y = builder.param("y", bits, modulus_bits)
        q = builder.param("q", bits, modulus_bits)
        mu = builder.param("mu", bits)
        builder.output("z", builder.mulmod(x, y, q, mu))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        optimized = optimize(legalized)
        assert len(optimized.body) <= len(legalized.body)
        q_value = (1 << modulus_bits) - 159
        while q_value.bit_length() != modulus_bits or q_value % 2 == 0:
            q_value -= 1
        mu_value = (1 << (2 * modulus_bits + 3)) // q_value
        a, b = q_value - 3, q_value // 5
        raw = compile_kernel(legalized)(x=a, y=b, q=q_value, mu=mu_value)
        opt = compile_kernel(optimized)(x=a, y=b, q=q_value, mu=mu_value)
        assert raw == opt
        assert opt["z"] == (a * b) % q_value

    def test_runs_each_pass_once(self):
        builder = KernelBuilder("once")
        x = builder.param("x", 128, 124)
        y = builder.param("y", 128, 124)
        q = builder.param("q", 128, 124)
        builder.output("z", builder.addmod(x, y, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        records = []
        optimize(legalized, observer=lambda *record: records.append(record))
        assert [(name, round_index) for name, round_index, *_ in records] == [
            (optimization.__name__, 0) for optimization in DEFAULT_PIPELINE
        ]
        assert records[0][3] == len(legalized.body)
        for record, following in zip(records, records[1:]):
            assert record[4] == following[3]

    def test_one_sweep_finds_work_that_other_rules_expose(self):
        # The repeated add makes the select's arms equal, which makes the
        # select a copy: legalize's value numbering plus DCE find both.
        builder = KernelBuilder("chain")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        c = builder.param("c", 1)
        first = builder.add(x, y, result_bits=64)
        second = builder.add(x, y, result_bits=64)
        builder.output("z", builder.select(c, first, second))
        optimized = optimize(legalize(builder.build(), RewriteOptions(word_bits=64)))
        assert op_histogram(optimized) == {OpKind.ADD: 1, OpKind.MOV: 1}
        assert interpret(optimized, {"x": 5, "y": 7, "c": 0}) == {"z": 12}

    def test_idempotent(self):
        builder = KernelBuilder("fixed")
        x = builder.param("x", 128, 124)
        y = builder.param("y", 128, 124)
        q = builder.param("q", 128, 124)
        builder.output("z", builder.addmod(x, y, q))
        once = optimize(legalize(builder.build(), RewriteOptions(word_bits=64)))
        twice = optimize(once)
        assert [str(s) for s in once.body] == [str(s) for s in twice.body]


class TestSweepSharing:
    def test_unchanged_statements_are_reused(self):
        builder = KernelBuilder("reuse")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        total = builder.add(x, y, result_bits=64)
        builder.output("z", builder.add(total, builder.constant(0, 64), result_bits=64))
        kernel = builder.build()
        numbered = value_number(kernel)
        assert numbered.body[0] is kernel.body[0]
        assert numbered.body[1] is not kernel.body[1]

    def test_operand_groups_interned(self):
        builder = KernelBuilder("intern")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        hi = builder.fresh(64, "hi")
        lo = builder.fresh(64, "lo")
        product = builder.emit(OpKind.MUL, Group((hi, lo)), [x, y]).dests
        builder.emit(OpKind.MOV, builder.fresh(128, "wide"), [Group((hi, lo))])
        builder.output("a", builder.compare(OpKind.LT, x, y))
        builder.output("b", builder.compare(OpKind.LE, x, y))
        numbered = value_number(builder.build())
        mul, wide, less, less_equal = (
            next(s for s in numbered.body if s.op is op)
            for op in (OpKind.MUL, OpKind.MOV, OpKind.LT, OpKind.LE)
        )
        # A use of a multi-part result shares the defining statement's group.
        assert wide.operands[0] is product is mul.dests
        assert less.operands[0] is less_equal.operands[0] is mul.operands[0]
