"""End-to-end legalization tests: semantics, pruning, interfaces, errors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen.python_exec import compile_kernel
from repro.core.ir.builder import KernelBuilder
from repro.core.ir.interp import interpret
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.types import IntType
from repro.core.ir.values import Group, Var
from repro.core.rewrite.legalize import is_machine_legal, kernel_is_machine_legal, legalize
from repro.core.rewrite.options import RewriteOptions
from repro.core.rewrite.rules_expand import EXPANSIONS
from repro.core.rewrite.rules_split import SPLITS
from repro.errors import RewriteError

WORD = 64


def make_modulus(bits, offset=1):
    q = (1 << bits) - offset
    while q % 2 == 0 or q.bit_length() != bits:
        q -= 1
    return q


def mulmod_kernel(bits, modulus_bits, multiplication="schoolbook"):
    builder = KernelBuilder(f"mulmod_{bits}")
    x = builder.param("x", bits, modulus_bits)
    y = builder.param("y", bits, modulus_bits)
    q = builder.param("q", bits, modulus_bits)
    mu = builder.param("mu", bits)
    builder.output("z", builder.mulmod(x, y, q, mu, algorithm=multiplication))
    return builder.build()


class TestSemanticsAcrossWidths:
    @pytest.mark.parametrize(
        "bits,modulus_bits",
        [(128, 124), (256, 252), (512, 508), (512, 380), (1024, 753)],
    )
    def test_mulmod_matches_big_integer_reference(self, bits, modulus_bits):
        kernel = mulmod_kernel(bits, modulus_bits)
        legalized = legalize(kernel, RewriteOptions(word_bits=WORD))
        assert kernel_is_machine_legal(legalized, WORD)
        compiled = compile_kernel(legalized)
        q = make_modulus(modulus_bits)
        mu = (1 << (2 * modulus_bits + 3)) // q
        a, b = q - 3, (2 * q) // 3
        assert compiled(x=a, y=b, q=q, mu=mu)["z"] == (a * b) % q

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_mulmod_randomised_256(self, data):
        kernel = mulmod_kernel(256, 252)
        legalized = legalize(kernel, RewriteOptions(word_bits=WORD))
        compiled = compile_kernel(legalized)
        q = make_modulus(252, offset=data.draw(st.integers(min_value=1, max_value=501)) * 2 - 1)
        mu = (1 << (2 * 252 + 3)) // q
        a = data.draw(st.integers(min_value=0, max_value=q - 1))
        b = data.draw(st.integers(min_value=0, max_value=q - 1))
        assert compiled(x=a, y=b, q=q, mu=mu)["z"] == (a * b) % q

    def test_karatsuba_and_schoolbook_agree(self):
        q = make_modulus(252)
        mu = (1 << (2 * 252 + 3)) // q
        results = []
        for algorithm in ("schoolbook", "karatsuba"):
            kernel = mulmod_kernel(256, 252, algorithm)
            legalized = legalize(
                kernel, RewriteOptions(word_bits=WORD, multiplication=algorithm)
            )
            compiled = compile_kernel(legalized)
            results.append(compiled(x=q - 5, y=q - 11, q=q, mu=mu)["z"])
        assert results[0] == results[1] == ((q - 5) * (q - 11)) % q

    def test_32_bit_machine_word(self):
        kernel = mulmod_kernel(128, 124)
        legalized = legalize(kernel, RewriteOptions(word_bits=32))
        assert kernel_is_machine_legal(legalized, 32)
        compiled = compile_kernel(legalized)
        q = make_modulus(124)
        mu = (1 << (2 * 124 + 3)) // q
        assert compiled(x=q - 2, y=q - 7, q=q, mu=mu)["z"] == ((q - 2) * (q - 7)) % q

    def test_legalization_preserves_interpreter_semantics(self):
        # The wide kernel and the legalized kernel are both executable; they
        # must agree (the legalized one via the compiled Python backend).
        kernel = mulmod_kernel(128, 124)
        legalized = legalize(kernel, RewriteOptions(word_bits=WORD))
        compiled = compile_kernel(legalized)
        q = make_modulus(124)
        mu = (1 << (2 * 124 + 3)) // q
        a, b = 12345678901234567890 % q, q // 3
        reference = interpret(kernel, {"x": a, "y": b, "q": q, "mu": mu})["z"]
        assert compiled(x=a, y=b, q=q, mu=mu)["z"] == reference


class TestInterfaceFlattening:
    def test_param_and_output_counts(self):
        kernel = mulmod_kernel(256, 252)
        legalized = legalize(kernel, RewriteOptions(word_bits=WORD))
        # 4 original params x 4 limbs each, one output of 4 limbs.
        assert len(legalized.params) == 16
        assert len(legalized.outputs) == 4

    def test_non_power_of_two_pruning_shrinks_interface(self):
        # A 380-bit modulus stored in a 512-bit container: the top two 64-bit
        # words of every operand are provably zero and vanish (Section 4).
        pruned = legalize(mulmod_kernel(512, 380), RewriteOptions(word_bits=WORD))
        full = legalize(mulmod_kernel(512, 508), RewriteOptions(word_bits=WORD))
        assert len(pruned.params) < len(full.params)
        assert len(pruned.body) < len(full.body)
        layout = pruned.metadata["param_layout"]["x"]
        assert layout[0] is None and layout[1] is None  # pruned limbs
        assert all(limb is not None for limb in layout[2:])

    def test_metadata_records_configuration(self):
        legalized = legalize(mulmod_kernel(128, 124), RewriteOptions(word_bits=WORD))
        assert legalized.metadata["word_bits"] == WORD
        assert legalized.metadata["legalized"] is True
        assert legalized.metadata["original_params"][0] == ("x", 128, 124)

    def test_machine_width_kernel_untouched_interface(self):
        builder = KernelBuilder("single_word")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        q = builder.param("q", 64)
        builder.output("z", builder.addmod(x, y, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        assert [p.name for p in legalized.params] == ["x", "y", "q"]
        assert kernel_is_machine_legal(legalized, 64)
        compiled = compile_kernel(legalized)
        assert compiled(x=5, y=9, q=11)["z"] == 3


class TestErrors:
    def test_mulmod_without_mu_and_non_constant_modulus_rejected(self):
        builder = KernelBuilder("bad")
        x = builder.param("x", 128, 124)
        q = builder.param("q", 128, 124)
        builder.output("z", builder.mulmod(x, x, q))
        with pytest.raises(RewriteError):
            legalize(builder.build(), RewriteOptions(word_bits=WORD))

    def test_mulmod_with_constant_modulus_computes_mu(self):
        q = make_modulus(124)
        builder = KernelBuilder("const_mod")
        x = builder.param("x", 128, 124)
        constant_q = builder.constant(q, 128)
        builder.output("z", builder.mulmod(x, x, constant_q, modulus_bits=124))
        # modulus_bits attr is not part of builder.mulmod; emit manually.
        kernel = builder.build()
        legalized = legalize(kernel, RewriteOptions(word_bits=WORD))
        compiled = compile_kernel(legalized)
        a = q - 12345
        assert compiled(x=a)["z"] == (a * a) % q

    def test_modulus_too_wide_rejected(self):
        builder = KernelBuilder("bad_headroom")
        x = builder.param("x", 128)  # no effective bits: modulus assumed 124
        q = builder.param("q", 128, 126)  # only 2 bits of headroom
        mu = builder.param("mu", 128)
        builder.output("z", builder.mulmod(x, x, q, mu))
        with pytest.raises(RewriteError):
            legalize(builder.build(), RewriteOptions(word_bits=WORD))

    def test_invalid_options_rejected(self):
        with pytest.raises(RewriteError):
            RewriteOptions(word_bits=48)
        with pytest.raises(RewriteError):
            RewriteOptions(multiplication="toom")


#: ``op -> (operand groups, max parts per operand group, max destination
#: parts)`` of a machine-legal statement.
LEGAL_SHAPES = {
    OpKind.MOV: (1, 1, 2),
    OpKind.ADD: (2, 1, 2),
    OpKind.SUB: (2, 1, 2),
    OpKind.MUL: (2, 1, 2),
    OpKind.MULLO: (2, 1, 1),
    OpKind.SHR: (1, 2, 2),
    OpKind.SHL: (1, 2, 2),
    OpKind.LT: (2, 1, 1),
    OpKind.LE: (2, 1, 1),
    OpKind.EQ: (2, 1, 1),
    OpKind.AND: (2, 1, 1),
    OpKind.OR: (2, 1, 1),
    OpKind.NOT: (1, 1, 1),
    OpKind.SELECT: (3, 1, 1),
}


def shaped(op, operand_parts, dest_parts, operand_count=None, wide_part=False):
    """A statement with ``operand_parts`` word parts per operand group and
    ``dest_parts`` destination parts; ``wide_part`` widens the last operand
    part by one bit."""
    counter = iter(range(1000))

    def word(bits=WORD):
        return Var(f"v{next(counter)}", IntType(bits))

    count = LEGAL_SHAPES[op][0] if operand_count is None else operand_count
    operands = [Group(tuple(word() for _ in range(operand_parts))) for _ in range(count)]
    if wide_part:
        operands[-1] = Group(operands[-1].parts[:-1] + (word(WORD + 1),))
    attrs = {"amount": 1} if op in (OpKind.SHR, OpKind.SHL) else {}
    return Statement(op, Group(tuple(word() for _ in range(dest_parts))), tuple(operands), attrs)


class TestMachineLegality:
    @pytest.mark.parametrize("op", list(LEGAL_SHAPES), ids=lambda op: op.value)
    def test_boundaries_per_op(self, op):
        _, operand_parts, dest_parts = LEGAL_SHAPES[op]
        assert is_machine_legal(shaped(op, operand_parts, dest_parts), WORD)
        assert not is_machine_legal(shaped(op, operand_parts, dest_parts + 1), WORD)
        assert not is_machine_legal(shaped(op, operand_parts + 1, dest_parts), WORD)
        assert not is_machine_legal(shaped(op, operand_parts, dest_parts, wide_part=True), WORD)
        assert is_machine_legal(shaped(op, operand_parts, dest_parts, wide_part=True), WORD + 1)

    @pytest.mark.parametrize("op", list(EXPANSIONS), ids=lambda op: op.value)
    def test_modular_ops_are_never_legal(self, op):
        operand_count = {OpKind.REDUCE: 2}.get(op, 3)
        statement = shaped(op, 1, 1, operand_count=operand_count)
        assert not is_machine_legal(statement, WORD)
        assert not is_machine_legal(statement, 1024)


class TestProgressCheck:
    def addmod_kernel(self):
        builder = KernelBuilder("progress")
        x = builder.param("x", 128, 124)
        y = builder.param("y", 128, 124)
        q = builder.param("q", 128, 124)
        builder.output("z", builder.addmod(x, y, q))
        return builder.build()

    def test_a_split_that_does_not_halve_raises(self, monkeypatch):
        def stalling_split(statement, context, options):
            return [(statement.op, statement.dests, statement.operands, statement.attrs)]

        monkeypatch.setitem(SPLITS, OpKind.ADD, stalling_split)
        with pytest.raises(RewriteError, match="stalling_split"):
            legalize(self.addmod_kernel(), RewriteOptions(word_bits=WORD))

    def test_an_expansion_that_keeps_its_modular_op_raises(self, monkeypatch):
        def stalling_expansion(statement, context, options):
            return [(statement.op, statement.dests, statement.operands, statement.attrs)]

        monkeypatch.setitem(EXPANSIONS, OpKind.ADDMOD, stalling_expansion)
        with pytest.raises(RewriteError, match="stalling_expansion"):
            legalize(self.addmod_kernel(), RewriteOptions(word_bits=WORD))
