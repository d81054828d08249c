"""Tests of the benchmark's own helpers (``perfbench/mbench``).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repo root.
"""

import ctypes

import pytest

from mbench import inputs, native
from mbench.compile_sweep import draw_families
from mbench.inputs import Family, draw_batch, edge_values, oracle
from mbench.serve_cold import draw_trace
from mbench.serve_warm import FAMILIES as WARM_FAMILIES, popularity
from mbench.spans import Recorder, Span, self_time_table, self_times


@pytest.fixture(scope="module")
def vmul_384():
    from repro.core.driver import CompilerSession

    family = Family("vmul", 384)
    return family, CompilerSession().lower(family.build(), options=family.config().rewrite_options())


class TestLimbLayout:
    def test_pruned_limbs_are_skipped(self, vmul_384):
        _, lowered = vmul_384
        layout = native.LimbLayout.of(lowered)
        params = {name: (limbs, uniform) for name, limbs, uniform in layout.params}
        limbs, uniform = params["x"]
        assert len(limbs) == 8 and layout.live(limbs) == 6 and not uniform
        assert params["q"][1] and params["mu"][1]

    def test_round_trip(self, vmul_384):
        family, lowered = vmul_384
        layout = native.LimbLayout.of(lowered)
        uniform, elements = draw_batch(family, seed=3, size=40)
        for element in elements:
            for name, limbs, _ in layout.params:
                if name in element:
                    words = layout.split(element[name], limbs)
                    assert len(words) == 6
                    assert layout.join(words, limbs) == element[name]

    def test_non_zero_pruned_limb_is_rejected(self, vmul_384):
        _, lowered = vmul_384
        layout = native.LimbLayout.of(lowered)
        limbs = dict((name, limbs) for name, limbs, _ in layout.params)["x"]
        with pytest.raises(ValueError, match="pruned"):
            layout.split(1 << 447, limbs)

    def test_pack_shapes_and_unpack(self, vmul_384):
        family, lowered = vmul_384
        layout = native.LimbLayout.of(lowered)
        uniform, elements = draw_batch(family, seed=3, size=5)
        arguments, outputs = layout.pack(uniform, elements)
        arrays = [argument for argument in arguments if isinstance(argument, ctypes.Array)]
        scalars = [argument for argument in arguments if not isinstance(argument, ctypes.Array)]
        assert [len(array) for array in arrays] == [30, 30]  # x, y: 5 elements x 6 live limbs
        assert len(scalars) == 12  # q and mu, 6 live limbs each
        assert len(layout.argtypes()) == len(arguments) + len(outputs) + 1
        flat = layout.split(uniform["q"] - 1, dict((n, l) for n, l in layout.outputs)["z"]) * 5
        buffer = outputs["z"]
        for index, word in enumerate(flat):
            buffer[index] = word
        assert layout.unpack(outputs, 5) == [{"z": uniform["q"] - 1}] * 5

    @pytest.mark.skipif(native.find_cc() is None, reason="no C compiler (cc) on PATH")
    def test_native_agrees_with_python_exec_and_bigints(self, vmul_384, tmp_path):
        from repro.core.driver import emit

        family, lowered = vmul_384
        process, so_path = native.start_build(native.find_cc(), emit(lowered, "c99"), tmp_path, lowered.name)
        native.finish_build(process)
        kernel = native.NativeKernel(lowered, so_path)
        python = emit(lowered, "python_exec")
        uniform, elements = draw_batch(family, seed=5, size=48)
        prepared, outputs = kernel.prepare(uniform, elements)
        kernel.call(prepared)
        want = [oracle(family, uniform, element) for element in elements]
        assert kernel.layout.unpack(outputs, len(elements)) == want
        assert [python(**uniform, **element) for element in elements] == want


class TestSeeds:
    def test_batches_repeat_byte_for_byte(self):
        for family in (Family("cooley_tukey", 768, "karatsuba"), Family("axpy", 128)):
            first = repr(draw_batch(family, seed=7, size=64)).encode()
            assert first == repr(draw_batch(family, seed=7, size=64)).encode()
            assert first != repr(draw_batch(family, seed=8, size=64)).encode()

    def test_traces_repeat(self):
        assert draw_families(4) == draw_families(4)
        assert draw_trace(4) == draw_trace(4)
        assert popularity(4) == popularity(4)
        assert draw_trace(4) != draw_trace(5)

    def test_edge_values_are_in_every_batch(self):
        family = Family("cooley_tukey", 384)
        uniform, elements = draw_batch(family, seed=1, size=64)
        q = uniform["q"]
        xs = {element["x"] for element in elements}
        assert {0, 1, q - 1, q - 2, (1 << 64) - 1, (1 << 320) - 1} <= xs
        assert any(element["w"] == q - 1 for element in elements)
        assert all(value < q for element in elements for value in element.values())
        assert edge_values(q) == sorted(set(edge_values(q)))

    def test_compile_sweep_draw_is_stratified(self):
        families = draw_families(11)
        for bits in (128, 256, 384, 512, 768, 1024):
            pair = [family for family in families if family.bits == bits]
            assert sorted(family.is_butterfly for family in pair) == [False, True]
            assert sorted(family.multiplication for family in pair) == ["karatsuba", "schoolbook"]

    def test_popularity_keeps_pair_shares(self):
        for seed in (1, 2, 3):
            weights = popularity(seed)
            assert len(weights) == len(WARM_FAMILIES)
            for index in range(0, len(weights), 2):
                assert weights[index] + weights[index + 1] == pytest.approx(1.0)
        assert len({tuple(popularity(seed)) for seed in range(8)}) > 1

    def test_oracle(self):
        assert inputs.oracle(Family("gentleman_sande", 128), {"q": 7}, {"x": 2, "y": 5, "w": 3}) == {
            "x_out": 0,
            "y_out": 5,
        }


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            Span(1, None, "root", 0.0, 10.0),
            Span(2, 1, "a", 1.0, 4.0),
            Span(3, 1, "b", 3.0, 6.0),  # overlaps a: the union counts once
            Span(4, 2, "leaf", 2.0, 3.0),
            Span(5, 1, "late", 9.0, 12.0),  # runs past its parent: clipped
        ]
        own = self_times(spans)
        assert own == {1: pytest.approx(10 - 5 - 1), 2: pytest.approx(2.0), 3: pytest.approx(3.0),
                       4: pytest.approx(1.0), 5: pytest.approx(3.0)}
        table = self_time_table(spans)
        assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}

    def test_recorder_links_parents_per_thread(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner", kernel="k"):
                pass
        inner, outer = recorder.spans
        assert inner.parent == outer.span_id and outer.parent is None
        assert inner.ids == {"kernel": "k"}
        assert Recorder(enabled=False).span("x") is Recorder(enabled=False).span("y")
