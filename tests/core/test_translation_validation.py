"""Translation validation of the optimizer on every kernel family.

For each BLAS op and both butterflies, at every width from 64 to 1024 bits
(the non-powers-of-two 192, 320, 384 and 768 exercise zero-limb pruning),
with schoolbook and Karatsuba multiplication, the reference interpreter must
give the same outputs on the legalized kernel and on ``optimize`` of it.
Inputs are directed edge values (0, 1, q-1, all-ones limbs, carry and borrow
chains, an all-ones modulus) plus a few Hypothesis-drawn ones.  The
optimized statement counts are pinned as upper bounds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ir.interp import interpret
from repro.core.passes import optimize
from repro.core.rewrite.legalize import legalize
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel

WORD_BITS = 64

#: Optimized statement counts per family: ``{op: {bits: (schoolbook, karatsuba)}}``.
MAX_STATEMENTS = {
    "vadd": {64: (6, 6), 128: (15, 15), 192: (35, 35), 256: (36, 36), 320: (68, 68),
             384: (74, 74), 512: (81, 81), 768: (156, 156), 1024: (175, 175)},
    "vsub": {64: (5, 5), 128: (13, 13), 192: (25, 25), 256: (30, 30), 320: (51, 51),
             384: (56, 56), 512: (66, 66), 768: (121, 121), 1024: (141, 141)},
    "vmul": {64: (10, 10), 128: (48, 76), 192: (154, 316), 256: (177, 331), 320: (472, 1096),
             384: (519, 1108), 512: (649, 1239), 768: (1847, 3787), 1024: (2438, 4301)},
    "axpy": {64: (15, 15), 128: (61, 89), 192: (186, 348), 256: (209, 363), 320: (545, 1169),
             384: (592, 1181), 512: (722, 1312), 768: (2006, 3946), 1024: (2597, 4460)},
    "cooley_tukey": {64: (20, 20), 128: (74, 102), 192: (216, 378), 256: (239, 393),
                     320: (611, 1235), 384: (658, 1247), 512: (788, 1378),
                     768: (2147, 4087), 1024: (2738, 4601)},
    "gentleman_sande": {64: (20, 20), 128: (74, 102), 192: (215, 372), 256: (239, 393),
                        320: (618, 1215), 384: (672, 1260), 512: (788, 1378),
                        768: (2256, 4168), 1024: (2738, 4601)},
}
MULTIPLICATIONS = ("schoolbook", "karatsuba")
BUTTERFLIES = ("cooley_tukey", "gentleman_sande")

FAMILIES = [
    (op, bits, multiplication)
    for op, widths in MAX_STATEMENTS.items()
    for bits in widths
    for multiplication in MULTIPLICATIONS
]


def build(op: str, bits: int, multiplication: str):
    config = KernelConfig(bits=bits, multiplication=multiplication)
    if op in BUTTERFLIES:
        return build_butterfly_kernel(config, op), config
    return build_blas_kernel(op, config), config


def wide_inputs(op: str, modulus_bits: int, q: int, x: int, y: int, w: int) -> dict[str, int]:
    """The wide kernel's parameter values for one element."""
    values = {"x": x, "y": y, "q": q}
    if op in ("vmul", "axpy") or op in BUTTERFLIES:
        values["mu"] = (1 << (2 * modulus_bits + 3)) // q
    if op == "axpy":
        values["a"] = w
    if op in BUTTERFLIES:
        values["w"] = w
    return values


def limb_inputs(legalized, values: dict[str, int]) -> dict[str, int]:
    """Split wide parameter values into the legalized kernel's limbs."""
    mask = (1 << WORD_BITS) - 1
    layout = legalized.metadata["param_layout"]
    limbs = {}
    for name, bits, _ in legalized.metadata["original_params"]:
        count = len(layout[name])
        for index, limb in enumerate(layout[name]):
            limb_value = (values[name] >> (WORD_BITS * (count - 1 - index))) & mask
            if limb is None:
                assert limb_value == 0, f"{name} has bits in a pruned limb"
            else:
                limbs[limb] = limb_value
    return limbs


def directed_elements(q: int) -> list[tuple[int, int, int]]:
    """``(x, y, w)`` edge cases below ``q``: extremes, carry and borrow chains."""
    all_ones = q - 1
    limbs = 1
    while (1 << (WORD_BITS * limbs)) - 1 < q:
        all_ones = (1 << (WORD_BITS * limbs)) - 1  # +1 carries through every limb
        limbs += 1
    return [
        (0, 0, 0),
        (0, 1, 1),  # 0 - 1 borrows through every limb
        (q - 1, q - 1, q - 1),
        (all_ones, 1, q - 1),
        (q - 1 - all_ones, all_ones, 1),  # the sum lands exactly on q - 1
    ]


def assert_optimize_preserves(op, legalized, optimized, modulus_bits, q, elements):
    for x, y, w in elements:
        limbs = limb_inputs(legalized, wide_inputs(op, modulus_bits, q, x, y, w))
        assert interpret(optimized, limbs) == interpret(legalized, limbs), (x, y, w, q)


@pytest.mark.parametrize(
    "op,bits,multiplication",
    FAMILIES,
    ids=[f"{op}-{bits}-{multiplication}" for op, bits, multiplication in FAMILIES],
)
def test_optimize_preserves_semantics(op, bits, multiplication):
    kernel, config = build(op, bits, multiplication)
    legalized = legalize(kernel, config.rewrite_options())
    optimized = optimize(legalized)
    bound = MAX_STATEMENTS[op][bits][MULTIPLICATIONS.index(multiplication)]
    assert len(optimized.body) <= bound

    modulus_bits = config.effective_modulus_bits
    # An all-ones modulus: every limb of q, q - 1 and mu is saturated.
    q = (1 << modulus_bits) - 1
    assert_optimize_preserves(op, legalized, optimized, modulus_bits, q, directed_elements(q))

    @settings(max_examples=2)
    @given(st.data())
    def drawn(data):
        q = data.draw(st.integers(1 << (modulus_bits - 1), (1 << modulus_bits) - 1)) | 1
        below_q = st.integers(0, q - 1)
        element = (data.draw(below_q), data.draw(below_q), data.draw(below_q))
        assert_optimize_preserves(op, legalized, optimized, modulus_bits, q, [element])

    drawn()
