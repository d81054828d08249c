"""Tests for the CUDA, C99 and Python code generators."""

import shutil
import subprocess
from collections import Counter

import pytest

from repro.core.codegen.c99 import generate_c99
from repro.core.codegen.common import CTypes, StatementTranslator
from repro.core.codegen.cuda import generate_cuda
from repro.core.codegen.python_exec import compile_kernel, generate_python_source
from repro.core.driver import CompilerSession
from repro.core.ir.builder import KernelBuilder
from repro.core.ir.interp import interpret
from repro.core.passes import optimize
from repro.core.rewrite.legalize import legalize
from repro.core.rewrite.options import RewriteOptions
from repro.errors import CodegenError
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel


def butterfly_kernel(bits=256, modulus_bits=252):
    builder = KernelBuilder(f"bf_{bits}")
    x = builder.param("x", bits, modulus_bits)
    y = builder.param("y", bits, modulus_bits)
    w = builder.param("w", bits, modulus_bits)
    q = builder.param("q", bits, modulus_bits)
    mu = builder.param("mu", bits)
    t = builder.mulmod(w, y, q, mu)
    builder.output("x_out", builder.addmod(x, t, q))
    builder.output("y_out", builder.submod(x, t, q))
    builder.metadata(uniform_params=["w", "q", "mu"])
    return builder.build()


@pytest.fixture(scope="module")
def legalized_butterfly():
    return legalize(butterfly_kernel(), RewriteOptions(word_bits=64))


class TestCTypes:
    def test_64_bit_types(self):
        types = CTypes.for_word_bits(64)
        assert types.word == "uint64_t"
        assert types.double == "unsigned __int128"
        assert types.declared(1) == "unsigned int"
        assert types.declared(64) == "uint64_t"

    def test_32_bit_types(self):
        types = CTypes.for_word_bits(32)
        assert types.word == "uint32_t"
        assert types.double == "uint64_t"

    def test_unsupported_width(self):
        with pytest.raises(CodegenError):
            CTypes.for_word_bits(16)
        with pytest.raises(CodegenError):
            CTypes.for_word_bits(64).declared(128)


class TestCudaBackend:
    def test_contains_device_and_global_functions(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "__device__ __forceinline__ void bf_256_scalar(" in source
        assert 'extern "C" __global__ void bf_256(' in source
        assert "blockIdx.x" in source and "threadIdx.x" in source
        assert "unsigned __int128" in source

    def test_uniform_parameters_passed_by_value(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        # Element parameters are pointers; uniform ones are scalars.
        assert "const uint64_t *__restrict__ x" in source
        assert "const uint64_t q_0_0" in source
        assert "const uint64_t *__restrict__ q" not in source

    def test_launcher_uses_1024_thread_blocks(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "threads_per_block = 1024" in source
        assert f"launch_{legalized_butterfly.name}(" in source

    def test_launcher_can_be_omitted(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly, include_launcher=False)
        assert "launch_" not in source

    def test_outputs_stored_per_element(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "x_out[element * 4 + 0]" in source
        assert "y_out[element * 4 + 3]" in source

    def test_rejects_non_legalized_kernel(self):
        with pytest.raises(CodegenError):
            generate_cuda(butterfly_kernel())

    def test_pruned_kernel_has_smaller_signature(self):
        wide = legalize(butterfly_kernel(512, 508), RewriteOptions(word_bits=64))
        pruned = legalize(butterfly_kernel(512, 380), RewriteOptions(word_bits=64))
        assert generate_cuda(pruned).count("uint64_t x_") < generate_cuda(wide).count("uint64_t x_")


class TestEmittedText:
    def test_c_family_sources_are_ascii(self, legalized_butterfly):
        # One non-ASCII character would store the whole text at 2 bytes per
        # character.
        assert generate_c99(legalized_butterfly).isascii()
        assert generate_cuda(legalized_butterfly).isascii()

    def test_cuda_translates_each_statement_once(self, legalized_butterfly):
        lowered = optimize(legalized_butterfly)
        source = generate_cuda(lowered)
        lines = Counter(line.strip() for line in source.splitlines())
        output_limbs = {output.name for output in lowered.outputs}
        translator = StatementTranslator(CTypes.for_word_bits(64))
        for statement in lowered.body:
            for c_line in translator.translate(statement):
                if c_line.split(" =", 1)[0] in output_limbs:
                    c_line = "*" + c_line
                assert lines[c_line] == 1, c_line

    def test_global_kernel_calls_the_scalar_routine(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "bf_256_scalar(&x_out[element * 4 + 0], " in source
        assert source.count("bf_256_scalar(") == 2  # definition + call


class TestC99Backend:
    def test_scalar_and_batch_functions(self, legalized_butterfly):
        source = generate_c99(legalized_butterfly)
        assert "void bf_256(" in source
        assert "void bf_256_batch(" in source
        assert "#include <stdint.h>" in source

    def test_pointer_outputs(self, legalized_butterfly):
        source = generate_c99(legalized_butterfly)
        assert "uint64_t *x_out_0_0" in source
        assert "*x_out_0_0 =" in source

    def test_batch_can_be_omitted(self, legalized_butterfly):
        source = generate_c99(legalized_butterfly, include_batch=False)
        assert "_batch(" not in source

    def test_rejects_non_legalized_kernel(self):
        with pytest.raises(CodegenError):
            generate_c99(butterfly_kernel())


class TestPythonBackend:
    def test_source_is_valid_python(self, legalized_butterfly):
        source = generate_python_source(legalized_butterfly)
        compile(source, "<test>", "exec")
        assert source.startswith("def ")

    def test_compiled_matches_interpreter(self):
        kernel = butterfly_kernel(128, 124)
        legalized = legalize(kernel, RewriteOptions(word_bits=64))
        compiled = compile_kernel(legalized)
        q = (1 << 124) - 159
        mu = (1 << (2 * 124 + 3)) // q
        inputs = {"x": q - 5, "y": q // 3, "w": q // 7, "q": q, "mu": mu}
        expected = interpret(kernel, inputs)
        assert compiled(**inputs) == expected

    def test_rejects_non_legalized_kernel(self):
        with pytest.raises(CodegenError):
            generate_python_source(butterfly_kernel())

    def test_pack_inputs_validates_range(self):
        kernel = legalize(butterfly_kernel(128, 124), RewriteOptions(word_bits=64))
        compiled = compile_kernel(kernel)
        with pytest.raises(CodegenError):
            compiled(x=-1, y=0, w=0, q=3, mu=1)
        with pytest.raises(CodegenError):
            compiled(x=1 << 127, y=0, w=0, q=3, mu=1)  # exceeds effective bits
        with pytest.raises(CodegenError):
            compiled(x=0, y=0, w=0, q=3)  # missing mu

    def test_pruned_limb_with_nonzero_value_rejected(self):
        builder = KernelBuilder("pruned_input")
        x = builder.param("x", 256, 120)
        q = builder.param("q", 256, 120)
        builder.output("z", builder.addmod(x, x, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        compiled = compile_kernel(legalized)
        assert compiled(x=5, q=11)["z"] == 10
        with pytest.raises(CodegenError):
            compiled(x=1 << 200, q=11)

    def test_call_limbs_direct(self):
        kernel = legalize(butterfly_kernel(128, 124), RewriteOptions(word_bits=64))
        compiled = compile_kernel(kernel)
        q = (1 << 124) - 159
        mu = (1 << (2 * 124 + 3)) // q
        packed = compiled.pack_inputs({"x": 1, "y": 2, "w": 3, "q": q, "mu": mu})
        raw = compiled.call_limbs(*packed)
        assert compiled.unpack_outputs(raw)["x_out"] == 7


#: Kernels whose c99 unit must compile: a pruned-width Karatsuba butterfly
#: and a power-of-two schoolbook BLAS op.
C_UNITS = {
    "cooley_tukey-384-karatsuba": lambda: build_butterfly_kernel(
        KernelConfig(bits=384, multiplication="karatsuba")
    ),
    "vmul-256-schoolbook": lambda: build_blas_kernel("vmul", KernelConfig(bits=256)),
}


@pytest.mark.skipif(shutil.which("cc") is None, reason="no system C compiler (cc) on PATH")
class TestEmittedCCompiles:
    """The emitted c99 unit is real C: the system compiler accepts it."""

    @pytest.mark.parametrize("label", list(C_UNITS))
    def test_c99_unit_compiles(self, tmp_path, label):
        source = CompilerSession().compile(C_UNITS[label](), target="c99")
        path = tmp_path / f"{label}.c"
        path.write_text(source)
        result = subprocess.run(
            ["cc", "-std=c99", "-Wall", "-c", str(path), "-o", str(tmp_path / f"{label}.o")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / f"{label}.o").stat().st_size > 0
