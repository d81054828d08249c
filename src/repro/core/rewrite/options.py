"""Configuration of the MoMA legalization pass."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RewriteError

__all__ = ["RewriteOptions", "SCHOOLBOOK", "KARATSUBA"]

#: Multiplication algorithm names (Section 5.4: the user selects one).
SCHOOLBOOK = "schoolbook"
KARATSUBA = "karatsuba"


@dataclass(frozen=True)
class RewriteOptions:
    """Options controlling how kernels are legalized.

    Attributes:
        word_bits: the machine word width to legalize down to (64 on the
            paper's GPUs; 32 is also supported and exercised by tests).
        multiplication: which double-word multiplication rule to use at every
            recursion level — ``"schoolbook"`` (Equation 8 / rule 28) or
            ``"karatsuba"`` (Equation 9).  Individual ``mulmod`` statements
            can override this via their ``algorithm`` attribute.
    """

    word_bits: int = 64
    multiplication: str = SCHOOLBOOK

    def __post_init__(self) -> None:
        if self.word_bits < 8:
            raise RewriteError(f"word_bits must be at least 8, got {self.word_bits}")
        if self.word_bits & (self.word_bits - 1):
            raise RewriteError(f"word_bits must be a power of two, got {self.word_bits}")
        if self.multiplication not in (SCHOOLBOOK, KARATSUBA):
            raise RewriteError(
                f"multiplication must be '{SCHOOLBOOK}' or '{KARATSUBA}', "
                f"got {self.multiplication!r}"
            )
