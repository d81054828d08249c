"""Values of the abstract-code IR: variables, constants and operand groups.

The paper writes multi-word quantities as bracketed sequences such as
``[c0, c1] = [a0, a1] + [b0, b1]`` (Table 1).  :class:`Group` is that bracket:
an ordered, most-significant-first sequence of typed values whose combined
numeric value is the base-``2**width`` composition of its parts.  Groups may
mix widths — ``[delta, c2]`` combines a 1-bit carry with an omega-bit word —
exactly as the rules do.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Union

from repro.errors import IRError
from repro.core.ir.types import IntType

__all__ = ["Var", "Const", "Value", "Group", "NameGenerator", "as_group"]


@dataclass(frozen=True)
class Var:
    """A typed scalar variable.

    Attributes:
        name: unique name within a kernel.
        type: the variable's integer type.
        effective_bits: for kernel inputs of padded (power-of-two) types this
            records how many low bits can actually be non-zero at runtime
            (e.g. 384 for a BLS12-381-style operand stored in a u512).  The
            legalizer uses it to substitute known-zero high halves with
            constants, which is the paper's non-power-of-two optimization
            (Section 4, Equation 35).
    """

    name: str
    type: IntType
    effective_bits: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise IRError("variable name must be non-empty")
        if self.effective_bits is not None and not 0 <= self.effective_bits <= self.type.bits:
            raise IRError(
                f"effective_bits {self.effective_bits} out of range for {self.type}"
            )

    def __str__(self) -> str:
        return f"{self.name}:{self.type}"

    @property
    def bits(self) -> int:
        """The variable's declared bit-width."""
        return self.type.bits


@dataclass(frozen=True)
class Const:
    """A typed constant."""

    value: int
    type: IntType

    def __post_init__(self) -> None:
        if not self.type.fits(self.value):
            raise IRError(f"constant {self.value} does not fit in {self.type}")

    def __str__(self) -> str:
        return f"{self.value:#x}:{self.type}"

    @property
    def bits(self) -> int:
        """The constant's declared bit-width."""
        return self.type.bits


Value = Union[Var, Const]


@dataclass(frozen=True)
class Group:
    """A most-significant-first sequence of values forming one number.

    The numeric value of ``Group((p0, p1, ..., pk))`` is
    ``p0 * 2**(bits(p1)+...+bits(pk)) + p1 * 2**(bits(p2)+...+bits(pk)) + ...``.
    """

    parts: tuple[Value, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise IRError("a group must contain at least one value")
        for part in self.parts:
            if not isinstance(part, (Var, Const)):
                raise IRError(f"group parts must be Var or Const, got {part!r}")

    def __str__(self) -> str:
        if len(self.parts) == 1:
            return str(self.parts[0])
        return "[" + ", ".join(str(part) for part in self.parts) + "]"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def bits(self) -> int:
        """Total bit-width of the group."""
        return sum(part.bits for part in self.parts)

    @property
    def max_part_bits(self) -> int:
        """Width of the widest part; drives legalization."""
        return max(part.bits for part in self.parts)

    def variables(self) -> tuple[Var, ...]:
        """All variables referenced by this group, in order."""
        return tuple(part for part in self.parts if isinstance(part, Var))

    def compose(self, part_values: list[int]) -> int:
        """Combine per-part integer values into the group's numeric value."""
        if len(part_values) != len(self.parts):
            raise IRError(
                f"expected {len(self.parts)} part values, got {len(part_values)}"
            )
        value = 0
        for part, part_value in zip(self.parts, part_values):
            if not part.type.fits(part_value):
                raise IRError(f"value {part_value} does not fit in {part.type}")
            value = (value << part.bits) | part_value
        return value

    def decompose(self, value: int) -> list[int]:
        """Split a numeric value into per-part values (inverse of compose)."""
        if value < 0 or value >> self.bits:
            raise IRError(f"value {value} does not fit in a {self.bits}-bit group")
        part_values = []
        remaining = value
        for part in reversed(self.parts):
            part_values.append(remaining & part.type.mask)
            remaining >>= part.bits
        part_values.reverse()
        return part_values


def as_group(value: Union[Value, Group, tuple, list]) -> Group:
    """Coerce a value, tuple of values, or group into a :class:`Group`."""
    if isinstance(value, Group):
        return value
    if isinstance(value, (Var, Const)):
        return Group((value,))
    if isinstance(value, (tuple, list)):
        return Group(tuple(value))
    raise IRError(f"cannot interpret {value!r} as an operand group")


class NameGenerator:
    """Generates unique temporary names (``t0``, ``t1``, ...) within a kernel."""

    def __init__(self, prefix: str = "t") -> None:
        self._prefix = prefix
        self._counter = itertools.count()
        self._taken: set[str] = set()

    def reserve(self, name: str) -> None:
        """Mark a name as already in use (kernel parameters, existing temps)."""
        self._taken.add(name)

    def fresh(self, hint: str | None = None) -> str:
        """Return a fresh, never-before-issued name.

        If ``hint`` is given and still free it is used verbatim (so split
        halves keep the paper's ``x_0`` / ``x_1`` style names); otherwise a
        numeric suffix is appended.  Names are interned, so the code that
        backends generate from them shares the IR's strings.
        """
        if hint is not None and hint not in self._taken:
            self._taken.add(hint)
            return sys.intern(hint)
        while True:
            base = hint if hint is not None else self._prefix
            candidate = f"{base}{next(self._counter)}"
            if candidate not in self._taken:
                self._taken.add(candidate)
                return sys.intern(candidate)
