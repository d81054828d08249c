"""Seeded inputs and the bigint oracle shared by every correctness check.

One generator serves every workload: for a kernel family it draws a modulus
with the family's modulus width, then a batch of elements made of directed
edge values (0, 1, q-1, q-2, twiddle q-1, all-ones limbs below q, values
whose increment carries across limbs) followed by uniform values below q.
Every draw comes from a ``random.Random`` seeded with a string built from the
workload seed, so the same seed gives byte-identical input lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORD_BITS = 64

BUTTERFLIES = ("cooley_tukey", "gentleman_sande")


@dataclass(frozen=True)
class Family:
    """One kernel family: a BLAS op or butterfly variant at a width."""

    op: str
    bits: int
    multiplication: str = "schoolbook"

    @property
    def modulus_bits(self) -> int:
        return self.bits - 4

    @property
    def is_butterfly(self) -> bool:
        return self.op in BUTTERFLIES

    @property
    def label(self) -> str:
        return f"{self.op}-{self.bits}-{self.multiplication[0]}"

    def config(self):
        from repro.kernels import KernelConfig

        return KernelConfig(bits=self.bits, multiplication=self.multiplication)

    def build(self):
        """The wide-typed kernel, through the public frontends."""
        from repro.kernels import build_blas_kernel, build_butterfly_kernel

        if self.is_butterfly:
            return build_butterfly_kernel(self.config(), self.op)
        return build_blas_kernel(self.op, self.config())


def rng_for(seed: int, *labels) -> random.Random:
    """A generator private to one (seed, purpose) pair."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def barrett_mu(q: int, modulus_bits: int) -> int:
    """The Barrett constant the frontends expect next to ``q``."""
    return (1 << (2 * modulus_bits + 3)) // q


def draw_modulus(rng: random.Random, modulus_bits: int) -> int:
    """An odd modulus of exactly ``modulus_bits`` bits."""
    return rng.getrandbits(modulus_bits) | (1 << (modulus_bits - 1)) | 1


def edge_values(q: int) -> list[int]:
    """Directed edge values below ``q``, ascending and distinct."""
    values = {0, 1, 2, q - 1, q - 2, q // 2}
    limbs = 1
    while (1 << (WORD_BITS * limbs)) < q:
        all_ones = (1 << (WORD_BITS * limbs)) - 1
        values.add(all_ones)  # all-ones limbs: +1 carries through each one
        values.add(1 << (WORD_BITS * limbs))  # borrow chain on -1
        values.add(q - 1 - all_ones)  # x + all_ones lands exactly on q - 1
        limbs += 1
    return sorted(value for value in values if 0 <= value < q)


def _operand_names(family: Family) -> tuple[str, ...]:
    if family.is_butterfly:
        return ("x", "y", "w")
    return ("x", "y")


def draw_batch(family: Family, seed: int, size: int) -> tuple[dict, list[dict]]:
    """``(uniform, elements)`` for one family: shared params and per-element ones.

    ``uniform`` holds ``q`` (and ``mu``, and ``a`` for axpy) as the kernel's
    uniform parameters; ``elements`` is a list of ``size`` dicts, edge cases
    first.  For butterflies every edge value also appears with twiddle q-1.
    """
    rng = rng_for(seed, "batch", family.label)
    q = draw_modulus(rng, family.modulus_bits)
    uniform = {"q": q}
    if family.op in ("vmul", "axpy") or family.is_butterfly:
        uniform["mu"] = barrett_mu(q, family.modulus_bits)
    if family.op == "axpy":
        uniform["a"] = q - 1 if rng.random() < 0.5 else rng.randrange(q)

    names = _operand_names(family)
    edges = edge_values(q)
    elements: list[dict] = []
    for index, value in enumerate(edges):
        element = {name: edges[(index * (2 * k + 1) + k) % len(edges)] for k, name in enumerate(names)}
        element["x"] = value
        elements.append(element)
        if family.is_butterfly:
            elements.append({"x": value, "y": edges[-1 - index], "w": q - 1})
    elements.append({name: q - 1 for name in names})
    elements = elements[:size]
    while len(elements) < size:
        elements.append({name: rng.randrange(q) for name in names})
    return uniform, elements


def oracle(family: Family, uniform: dict, element: dict) -> dict:
    """The expected outputs, computed with Python integers."""
    q = uniform["q"]
    x, y = element["x"], element["y"]
    if family.op == "vadd":
        return {"z": (x + y) % q}
    if family.op == "vsub":
        return {"z": (x - y) % q}
    if family.op == "vmul":
        return {"z": (x * y) % q}
    if family.op == "axpy":
        return {"z": (uniform["a"] * x + y) % q}
    w = element["w"]
    if family.op == "cooley_tukey":
        return {"x_out": (x + w * y) % q, "y_out": (x - w * y) % q}
    return {"x_out": (x + y) % q, "y_out": ((x - y) * w) % q}
