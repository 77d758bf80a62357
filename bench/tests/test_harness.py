"""Self-tests of the benchmark harness: run with `python3 -m pytest bench/tests -q`."""

import dataclasses

import numpy as np
import pytest

import meim
import synth
import workloads
from spans import Patcher, Span, Tracer, add_windows, self_times, span_cost_s
from workloads import Probe, Workload, tail_percentile

TINY = synth.GraphShape(60, 3, 400, 20, 20)


class TestGenerator:
    def test_same_seed_same_graph(self):
        a, b = synth.generate(TINY, 3), synth.generate(TINY, 3)
        for split in synth.SPLITS:
            np.testing.assert_array_equal(a[split], b[split])

    def test_other_seed_other_graph(self):
        a, b = synth.generate(TINY, 3), synth.generate(TINY, 4)
        assert not np.array_equal(a["train"], b["train"])

    def test_sizes_vocabulary_and_distinct_triples(self):
        splits = synth.generate(TINY, 5)
        assert [len(splits[s]) for s in synth.SPLITS] == [TINY.train, TINY.valid, TINY.test]
        train = splits["train"]
        assert set(train[:, [0, 2]].ravel()) == set(range(TINY.num_entities))
        assert set(train[:, 1]) == set(range(TINY.num_relations))
        rows = np.concatenate([splits[s] for s in synth.SPLITS])
        assert len(np.unique(rows, axis=0)) == len(rows)

    def test_answer_sets_have_a_long_tail(self):
        shape = synth.SHAPES["wn18rr"]
        sizes = synth.answer_set_sizes(synth.generate(shape, 1)["train"],
                                       shape.num_entities, shape.num_relations)
        assert np.median(sizes) == 1 and sizes.max() >= 100

    def test_wn18rr_relation_counts_sum_to_its_train_split(self):
        shape = synth.SHAPES["wn18rr"]
        assert len(shape.relation_counts) == shape.num_relations
        assert sum(shape.relation_counts) == shape.train

    def test_wn18rr_relations_keep_their_shares(self):
        shape = synth.SHAPES["wn18rr"]
        got = synth.describe(synth.generate(shape, 2), shape)["train_relation_counts"]
        want = sorted(shape.relation_counts, reverse=True)
        assert got[:4] == pytest.approx(want[:4], rel=0.1)


class TestTailPercentile:
    def test_twenty_values_give_the_median(self):
        assert tail_percentile(range(20, 0, -1)) == (10, 50.0)

    def test_hundred_values_give_p90(self):
        assert tail_percentile(range(1, 101)) == (90, 90.0)

    def test_ten_beyond_exactly(self):
        value, pct = tail_percentile([5.0] + [1.0] * 10)
        assert (value, pct) == (1.0, 100.0 / 11)

    def test_too_few_values_give_the_minimum(self):
        assert tail_percentile([3.0, 2.0, 4.0]) == (2.0, 0.0)


class TestSelfTime:
    def test_children_union_is_subtracted_once(self):
        spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
                 Span("b", 3.0, 6.0, 0), Span("a.inner", 2.0, 3.0, 1)]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])

    def test_child_outside_its_parent_is_clipped(self):
        spans = [Span("root", 0.0, 2.0, -1), Span("late", 1.5, 3.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_windows_take_their_spans_as_children(self):
        spans = [Span("train", 0.0, 10.0, -1), Span("fwd", 1.0, 3.0, 0),
                 Span("fwd", 6.0, 7.0, 0), Span("eval", 8.5, 9.5, 0)]
        steps = add_windows(spans, "step", [0.5, 5.0, 8.0], parent=0)
        own = self_times(spans)
        assert [spans[i].parent for i in (1, 2, 3)] == [steps[0], steps[1], 0]
        assert [own[i] for i in steps] == pytest.approx([2.5, 2.0])
        assert own[0] == pytest.approx(10.0 - 7.5 - 1.0)


class TestTraceOverhead:
    def test_one_span_costs_something_small(self):
        assert 0 < span_cost_s(calls=2000, reps=3) < 1e-3

    def test_noise_larger_than_the_difference_is_unresolved(self):
        value, detail = workloads.trace_overhead([4, 6, 5], [1.0, 1.0], [1.3, 0.9, 1.1, 1.0])
        assert value == pytest.approx(5 * detail["span_cost_s"])
        assert detail["interleaved_diff_s"] < 0 and not detail["resolved"]


class TestPatching:
    def test_missing_function_is_absent_not_an_error(self):
        tracer, patcher = Tracer(), Patcher()
        assert not patcher.wrap("meim.model.no_such_function", tracer.wrapper("x"))
        assert not patcher.wrap("meim.no_such_module.f", tracer.wrapper("x"))

    def test_every_binding_is_wrapped_and_restored(self):
        original = meim.model.all_entity_logits
        tracer, patcher = Tracer(), Patcher()
        assert patcher.wrap("meim.model.all_entity_logits", tracer.wrapper("logits"))
        assert meim.evaluation.all_entity_logits is meim.model.all_entity_logits
        assert meim.model.all_entity_logits is not original
        patcher.restore()
        assert meim.evaluation.all_entity_logits is original
        assert meim.model.all_entity_logits is original

    def test_renamed_span_target_is_reported_absent(self, monkeypatch):
        monkeypatch.setitem(workloads.SPANS, "model.gone", "meim.model.gone")
        patcher = Patcher()
        try:
            assert workloads.install_spans(Tracer(), patcher) == ["meim.model.gone"]
        finally:
            patcher.restore()


class TestFailureAccounting:
    def test_failed_evaluation_counts_its_queries(self):
        probe = Probe()
        probe.evals.append({"start": 0.0, "end": None, "triples": 7})
        probe.fail(RuntimeError("boom"))
        assert probe.failed == 14 and probe.attempted == 14

    def test_step_that_raises_is_one_failure(self, tmp_path):
        workload = Workload("tiny-train", "train", TINY, dict(ce=2, cr=2, batch_size=16),
                            1.0, "self-test")
        calls = []
        real = meim.objective.total_loss

        def raise_on_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("step 3")
            return real(*args, **kwargs)

        patcher = Patcher()
        patcher.wrap("meim.objective.total_loss", lambda fn: raise_on_third)
        try:
            result = workloads.run(meim, workload, 1, 1.0, False, tmp_path)
        finally:
            patcher.restore()
        assert (result.attempted, result.failed) == (3, 1)
        assert not result.correct
        assert result.details["errors"] == ["FloatingPointError: step 3"]


class TestTinyRuns:
    def test_train_traced(self, tmp_path):
        workload = Workload("tiny-train", "train", TINY, dict(ce=2, cr=2, batch_size=16),
                            1.0, "self-test")
        result = workloads.run(meim, workload, 2, 1.0, True, tmp_path)
        assert result.correct, result.checks
        assert set(result.metrics) == set(workloads.LAYER_UNITS)
        assert result.details["absent_metrics"] == ["trainer.load_checkpoint_s"]
        assert result.metrics["tensor.tape_nodes"][0] > 0
        assert result.metrics["trace.overhead_s"][0] > 0

    def test_eval_untraced(self, tmp_path):
        workload = dataclasses.replace(workloads.WORKLOADS["eval-desk-fb15k237"], shape=TINY,
                                       flags=dict(ce=2, cr=2))
        result = workloads.run(meim, workload, 3, 1.0, False, tmp_path)
        assert result.correct, result.checks
        assert result.failed == 0 and result.attempted == 3 * 2 * TINY.test
        assert all(value > 0 for value, _ in result.metrics.values())
