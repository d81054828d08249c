"""Helpers for the repository benchmark (``perfbench/run.py``).

The benchmark drives the compiler, the generated kernels and the serving
tier only through their public entry points; everything here is the
benchmark's own code: seeded inputs and the bigint oracle (:mod:`.inputs`),
the native C harness (:mod:`.native`), in-memory spans (:mod:`.spans`),
summary statistics (:mod:`.stats`) and the four workloads.
"""
