"""Native C harness: build the ``c99`` artifact with ``cc`` and call it.

The emitted translation unit has a ``<kernel>_batch`` entry point whose
signature follows the lowered kernel's interface metadata:

* for each parameter in ``param_layout`` order, a uniform parameter (named in
  ``uniform_params``) is passed as one scalar word per live limb, any other
  parameter as a pointer to ``batch * live_limbs`` words, element-major;
* then one output pointer per ``output_layout`` entry, sized the same way;
* then ``size_t batch_size``.

Limbs are most-significant first; pruned limbs (``None`` in the layout) are
never passed and must be zero.  :class:`LimbLayout` is the one place that
knows this, and :class:`NativeKernel` uses it for every call.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
from dataclasses import dataclass
from pathlib import Path

CC_FLAGS = ("-O2", "-shared", "-fPIC")


def find_cc() -> str | None:
    """Path of the system C compiler, or ``None`` when there is none."""
    return shutil.which("cc")


@dataclass(frozen=True)
class LimbLayout:
    """Word-level interface of one lowered kernel."""

    word_bits: int
    params: tuple  # ((name, limbs-with-None, uniform), ...)
    outputs: tuple  # ((name, limbs-with-None), ...)

    @classmethod
    def of(cls, kernel) -> "LimbLayout":
        metadata = kernel.metadata
        uniform = set(metadata.get("uniform_params", ()))
        return cls(
            word_bits=metadata.get("word_bits", 64),
            params=tuple(
                (name, tuple(limbs), name in uniform)
                for name, limbs in metadata["param_layout"].items()
            ),
            outputs=tuple(
                (name, tuple(limbs)) for name, limbs in metadata["output_layout"].items()
            ),
        )

    def split(self, value: int, limbs: tuple) -> list[int]:
        """The live limbs of ``value`` (pruned limbs must be zero)."""
        mask = (1 << self.word_bits) - 1
        words = []
        for index, limb in enumerate(limbs):
            word = (value >> (self.word_bits * (len(limbs) - 1 - index))) & mask
            if limb is None:
                if word:
                    raise ValueError(f"value has non-zero bits in pruned limb {index}")
            else:
                words.append(word)
        if value >> (self.word_bits * len(limbs)):
            raise ValueError("value wider than its container")
        return words

    def join(self, words, limbs: tuple) -> int:
        """Inverse of :meth:`split`: live words back to an integer."""
        live = iter(words)
        value = 0
        for limb in limbs:
            value = (value << self.word_bits) | (0 if limb is None else next(live))
        return value

    @staticmethod
    def live(limbs: tuple) -> int:
        return sum(1 for limb in limbs if limb is not None)

    def pack(self, uniform: dict, elements: list[dict]) -> tuple[list, dict]:
        """Batch-call arguments (minus outputs and size) and output buffers."""
        word = ctypes.c_uint64 if self.word_bits == 64 else ctypes.c_uint32
        arguments = []
        for name, limbs, is_uniform in self.params:
            if is_uniform:
                arguments.extend(self.split(uniform[name], limbs))
            else:
                flat = [w for element in elements for w in self.split(element[name], limbs)]
                arguments.append((word * len(flat))(*flat))
        outputs = {
            name: (word * (self.live(limbs) * len(elements)))()
            for name, limbs in self.outputs
        }
        return arguments, outputs

    def unpack(self, outputs: dict, count: int) -> list[dict]:
        """Per-element output integers from the filled output buffers."""
        results = [dict() for _ in range(count)]
        for name, limbs in self.outputs:
            width = self.live(limbs)
            buffer = outputs[name]
            for index in range(count):
                results[index][name] = self.join(buffer[index * width:(index + 1) * width], limbs)
        return results

    def argtypes(self) -> list:
        word = ctypes.c_uint64 if self.word_bits == 64 else ctypes.c_uint32
        pointer = ctypes.POINTER(word)
        types = []
        for _, limbs, is_uniform in self.params:
            types.extend([word] * self.live(limbs) if is_uniform else [pointer])
        types.extend(pointer for _ in self.outputs)
        types.append(ctypes.c_size_t)
        return types


def start_build(cc: str, source: str, workdir: Path, name: str) -> tuple[subprocess.Popen, Path]:
    """Start ``cc`` on one translation unit; returns the process and .so path."""
    c_path = workdir / f"{name}.c"
    so_path = workdir / f"{name}.so"
    c_path.write_text(source)
    process = subprocess.Popen(
        [cc, *CC_FLAGS, "-o", str(so_path), str(c_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # so abort_build reaches cc's own children
    )
    return process, so_path


def abort_build(process: subprocess.Popen) -> None:
    """Kill a build and every process it started, and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def finish_build(process: subprocess.Popen) -> None:
    _, stderr = process.communicate()
    if process.returncode != 0:
        raise RuntimeError(f"cc failed: {stderr.decode(errors='replace')[:2000]}")


class NativeKernel:
    """A built shared object and its batch entry point."""

    def __init__(self, kernel, so_path: Path) -> None:
        self.layout = LimbLayout.of(kernel)
        self._library = ctypes.CDLL(str(so_path))
        self._batch = getattr(self._library, f"{kernel.name}_batch")
        self._batch.argtypes = self.layout.argtypes()
        self._batch.restype = None

    def prepare(self, uniform: dict, elements: list[dict]) -> tuple[tuple, dict]:
        """Marshal once; the returned arguments can be called many times."""
        arguments, outputs = self.layout.pack(uniform, elements)
        return (*arguments, *outputs.values(), len(elements)), outputs

    def call(self, prepared: tuple) -> None:
        self._batch(*prepared)
