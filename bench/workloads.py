"""The benchmark's workloads: what each one runs, checks and measures.

Training goes through `meim.train(config, store=...)` exactly as `meim
train` does: `load_dataset`, `config_from_preset`, then `train` with one
epoch, its final validation and a checkpoint path. Evaluation is the `meim
eval` path: `load_checkpoint`, `load_dataset`, `build_filter_index`,
`evaluate`. The library is never changed; the benchmark sees it from
outside, through a `Probe` that wraps a few of its functions:

* a training step starts when the trainer asks `data.batches` for a batch,
  and the probe ends the epoch after a fixed number of steps;
* an evaluation step starts at each tail-direction `all_entity_logits` call
  inside `evaluate`, one per chunk of queries ranked in both directions.

The work per run is fixed by `--seconds` and a nominal time per unit, the
median of `baseline.json`, never by the speed measured in the run, so a
faster library does the same work in less time and `wall_s` shows it. At
`--seconds 10` every workload runs its minimum: 11 training steps, or 3
evaluation-path calls.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import synth
from spans import Patcher, Span, Tracer, add_windows, self_times, span_cost_s, totals_in

BENCH_DIR = Path(__file__).resolve().parent

PRESET = "wn18rr"  # regularisers and dropouts of every workload
MIN_STEPS = 11  # so that a percentile with ten steps beyond it exists
MIN_EVAL_REPS = 3
RANK_SAMPLES = 16
SCORE_SAMPLES = 4
SCORE_TOLERANCE = 1e-10
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    shape: synth.GraphShape
    flags: dict  # `meim train` flags over the preset (for eval: of the checkpoint)
    nominal_s: float  # baseline.json median step_s_p50 (train) or wall_s (eval)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train-desk-wn18rr", "train", synth.SHAPES["wn18rr"],
             dict(ce=10, cr=10, batch_size=1024), 1.9,
             "acceptance-test shape; the step is all-entity scoring and its sparse softmax"),
    Workload("train-paper-wn18rr", "train", synth.SHAPES["wn18rr"],
             dict(ce=100, cr=100, batch_size=64), 3.1,
             "paper shape; mapping-generation VJP, Adam over 15.3M parameters and the ortho Gram"),
    Workload("eval-desk-fb15k237", "eval", synth.SHAPES["fb15k-237"], dict(ce=10, cr=10), 8.8,
             "read path: cache and checkpoint load, filter index, forward-only filtered ranking"),
)}


def _loss_value(out) -> float:
    """The loss in total_loss's (loss, parts) result; NaN, which fails a check, if unreadable."""
    try:
        return float(out[0].item())
    except (AttributeError, IndexError, TypeError, ValueError):
        return math.nan


def _split_len(args) -> int:
    try:
        return len(args[1].splits[args[2]])
    except (IndexError, AttributeError, KeyError, TypeError):
        return 0


class Probe:
    """Step boundaries, losses and evaluation reports, seen from outside the library."""

    def __init__(self):
        self.step_limit: int | None = None
        self.on_step = None  # callback(step, last) at each batch request
        self.bounds: list[float] = []  # time of each batch request, one more than steps
        self.batches: list[np.ndarray] = []
        self.store = None  # the store the batches came from
        self.losses: list[float] = []
        self.evals: list[dict] = []  # start, end, triples, report per evaluate call
        self.chunks: list[tuple[float, int]] = []  # (start, triples) per evaluation step
        self.failed = 0
        self.errors: list[str] = []

    def install(self, patcher: Patcher) -> list[str]:
        """Wrap the library; returns the paths that no longer exist."""
        hooks = {
            "meim.data.batches": self._batches,
            "meim.objective.total_loss": self._total_loss,
            "meim.evaluation.evaluate": self._evaluate,
            "meim.model.all_entity_logits": self._logits,
        }
        return [path for path, hook in hooks.items() if not patcher.wrap(path, hook)]

    def _batches(self, fn):
        def batches(*args, **kwargs):
            self.store = args[0] if args else kwargs.get("store")
            source = fn(*args, **kwargs)
            step = 0
            while True:
                self.bounds.append(perf_counter())
                limit_hit = self.step_limit is not None and step >= self.step_limit
                batch = None if limit_hit else next(source, None)
                if self.on_step is not None:
                    self.on_step(step, batch is None)
                if batch is None:
                    return
                self.batches.append(batch)
                step += 1
                yield batch

        return batches

    def _total_loss(self, fn):
        def total_loss(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.losses.append(_loss_value(out))
            return out

        return total_loss

    def _evaluate(self, fn):
        def evaluate(*args, **kwargs):
            record = {"start": perf_counter(), "end": None, "triples": _split_len(args)}
            self.evals.append(record)
            report = fn(*args, **kwargs)
            record["end"] = perf_counter()
            record["report"] = report
            return report

        return evaluate

    def _logits(self, fn):
        def all_entity_logits(*args, **kwargs):
            direction = args[3] if len(args) > 3 else kwargs.get("direction")
            if direction == "tail" and self.evals and self.evals[-1]["end"] is None:
                self.chunks.append((perf_counter(), len(args[1])))
            return fn(*args, **kwargs)

        return all_entity_logits

    def fail(self, exc: BaseException):
        """Count the operation that raised: the open evaluation's queries, or the step."""
        self.errors.append(f"{type(exc).__name__}: {exc}")
        if self.evals and self.evals[-1]["end"] is None:
            self.failed += max(1, 2 * self.evals[-1]["triples"])
        else:
            self.failed += 1

    @property
    def attempted(self) -> int:
        queries = sum(2 * e["triples"] for e in self.evals)
        return max(1, len(self.batches) + queries)

    def step_times(self) -> list[float]:
        return np.diff(self.bounds).tolist()

    def eval_rate(self, records: list[dict]) -> float:
        """Median over the evaluation steps of `records` of triples ranked per second."""
        rates = []
        for record in records:
            times, triples = self.eval_steps(record)
            rates += [n / t for n, t in zip(triples, times)]
        return statistics.median(rates)

    def eval_steps(self, record: dict) -> tuple[list[float], list[int]]:
        """Evaluation steps of one evaluate call: durations and triples ranked.

        When evaluate no longer calls all_entity_logits, the whole call is one step.
        """
        inside = [(t, n) for t, n in self.chunks if record["start"] <= t <= record["end"]]
        if not inside:
            return [record["end"] - record["start"]], [record["triples"]]
        starts = [t for t, _ in inside] + [record["end"]]
        return np.diff(starts).tolist(), [n for _, n in inside]


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile of `values` with at least `beyond` values above it.

    Returns (value, percentile). With `beyond` values or fewer, no such
    percentile exists and the minimum is returned as percentile 0.
    """
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return ordered[0], 0.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class RunResult:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    checks: dict = field(default_factory=dict)  # name -> bool
    details: dict = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.checks) and all(self.checks.values())


# -- inputs ---------------------------------------------------------------


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    """Build the inputs in a child process; returns the graph description."""
    flags = ["--preset", PRESET]
    for key, value in workload.flags.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    shape = json.dumps(dataclasses.asdict(workload.shape))
    cmd = [sys.executable, str(BENCH_DIR / "prepare.py"), workload.kind, str(seed), str(work),
           shape, *flags]
    subprocess.run(cmd, check=True, timeout=170)
    return json.loads((work / "graph.json").read_text())


def _instrument(trace: bool, out: RunResult) -> tuple[Probe, Patcher, Tracer | None]:
    """Install the probe, and the span tracer for a traced run; note what is absent."""
    probe, patcher = Probe(), Patcher()
    absent = probe.install(patcher)
    tracer = Tracer(PEAK_SPANS) if trace else None
    if tracer is not None:
        absent += install_spans(tracer, patcher)
    out.details["absent_hooks"] = absent
    return probe, patcher, tracer


# -- checks ---------------------------------------------------------------


def check_scores(meim, params, triples: np.ndarray, rng) -> bool:
    """Sampled tail-direction logits equal meim.score within SCORE_TOLERANCE.

    Only the tail direction: head-direction logits batch-normalize the known
    tail, not the head, so with trained batch norm they are another function.
    """
    pick = triples[rng.choice(len(triples), min(SCORE_SAMPLES, len(triples)), replace=False)]
    h, t, r = pick[:, 0], pick[:, 1], pick[:, 2]
    logits = meim.model.all_entity_logits(params, h, r, "tail").data
    for i in range(len(pick)):
        want = meim.model.score(params, int(h[i]), int(t[i]), int(r[i]))
        if not abs(logits[i, t[i]] - want) <= SCORE_TOLERANCE * max(1.0, abs(want)):
            return False
    return True


def oracle_rank(row: np.ndarray, answer: int, known: np.ndarray) -> float:
    """Filtered average-tie rank of `answer` in one score row."""
    keep = np.ones(row.shape[0], dtype=bool)
    keep[known] = False
    keep[answer] = True
    candidates = row[keep]
    better = np.count_nonzero(candidates > row[answer])
    ties = np.count_nonzero(candidates == row[answer]) - 1
    return 1.0 + better + ties / 2.0


def check_ranks(meim, params, store, split: str, report, rng) -> bool:
    """evaluate's ranks equal ranks recomputed here from the score rows."""
    triples = store.splits[split]
    known = np.concatenate([store.splits[s] for s in ("train", "valid", "test")])
    picks = np.sort(rng.choice(len(triples), min(RANK_SAMPLES, len(triples)), replace=False))
    h, t, r = (triples[picks, i] for i in range(3))
    rows = {"tail": meim.model.all_entity_logits(params, h, r, "tail").data,
            "head": meim.model.all_entity_logits(params, t, r, "head").data}
    by_direction = {d: [rec.rank for rec in report.records if rec.direction == d]
                    for d in ("tail", "head")}
    for i, n in enumerate(picks):
        same_r = known[:, 2] == r[i]
        tails = known[same_r & (known[:, 0] == h[i]), 1]
        heads = known[same_r & (known[:, 1] == t[i]), 0]
        if oracle_rank(rows["tail"][i], t[i], tails) != by_direction["tail"][n]:
            return False
        if oracle_rank(rows["head"][i], h[i], heads) != by_direction["head"][n]:
            return False
    return True


# -- training workloads ---------------------------------------------------


def _train_config(meim, workload, store, seed, checkpoint):
    flags = dict(workload.flags, epochs=1, eval_every=1, checkpoint_path=str(checkpoint),
                 seed=seed)
    return meim.trainer.config_from_preset(PRESET, store, flags)


def run_train(meim, workload: Workload, seed: int, seconds: float, trace: bool,
              work: Path) -> RunResult:
    out = RunResult()
    out.details["graph"] = prepare(workload, seed, work)
    data_dir, checkpoint = work / "data", work / "model.ckpt"
    n_steps = max(MIN_STEPS, round(seconds / workload.nominal_s))
    probe, patcher, tracer = _instrument(trace, out)
    if tracer is not None:
        probe.on_step = _step_toggle(tracer, n_steps)

    result, store = None, None
    probe.step_limit = n_steps + (1 if trace else 0)  # traced runs add a memory step
    start = perf_counter()
    try:
        store = meim.data.load_dataset(data_dir)
        config = _train_config(meim, workload, store, seed, checkpoint)
        result = meim.train(config, store=store)
    except Exception as exc:  # a failed operation is reported, not raised
        probe.fail(exc)
    finally:
        patcher.restore()
    end = perf_counter()

    out.attempted, out.failed = probe.attempted, probe.failed
    out.details["errors"] = probe.errors
    steps = probe.step_times()
    timed = steps[:n_steps]
    out.details["losses"] = probe.losses
    out.details["batches"] = batch_stats(probe)

    if timed and probe.evals and probe.evals[-1]["end"] is not None:
        final = probe.evals[-1]
        p50 = statistics.median(timed)
        tail, pct = tail_percentile(timed)
        out.details["step_s"] = timed
        out.details["step_s_tail_percentile"] = pct
        rates = [len(b) / t for b, t in zip(probe.batches, timed)]
        out.metrics = {
            "setup_s": (probe.bounds[0] - start, "s"),
            "wall_s": (end - start, "s"),
            "step_s_p50": (p50, "s"),
            "step_s_tail": (tail, "s"),
            "step_triples_per_s": (statistics.median(rates), "triples/s"),
            "eval_triples_per_s": (probe.eval_rate([final]), "triples/s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }

    rng = np.random.default_rng(seed)
    out.checks["steps_ran"] = len(probe.batches) == probe.step_limit and not probe.errors
    out.checks["losses_finite"] = (len(probe.losses) == len(probe.batches)
                                   and all(math.isfinite(x) for x in probe.losses))
    out.checks["final_validation"] = (
        result is not None and bool(probe.evals) and probe.evals[-1]["end"] is not None
        and probe.evals[-1]["report"].triple_count == len(store.splits["valid"])
        and math.isfinite(probe.evals[-1]["report"].mrr))
    out.checks["checkpoint_written"] = checkpoint.is_file() and checkpoint.stat().st_size > 0
    out.checks["logits_match_score"] = (
        result is not None and check_scores(meim, result.params, store.splits["train"], rng))
    if tracer is not None:
        out.metrics, out.details["absent_metrics"], out.details["trace_overhead"] = (
            train_layer_metrics(tracer, probe, start, end, n_steps, checkpoint))
        out.details["spans"] = tracer.spans
    return out


def _step_toggle(tracer: Tracer, n_steps: int):
    """Trace odd steps only, so the even ones measure the untraced step in the same run;
    step n_steps is the memory pass."""

    def on_step(step: int, last: bool):
        tracer.memory = step == n_steps and not last
        tracer.enabled = last or (step < n_steps and step % 2 == 1)

    return on_step


def batch_stats(probe: Probe) -> dict:
    """Distinct relations per batch, and k-vs-all target ids per step."""
    if not probe.batches:
        return {}
    distinct = [len(np.unique(b[:, 2])) / len(b) for b in probe.batches]
    train = probe.store.splits["train"].astype(np.int64)
    n_rel = int(train[:, 2].max()) + 1
    targets = []
    for b in probe.batches:
        b = b.astype(np.int64)
        n = 0
        for known in (0, 1):  # tail queries (h, r), then head queries (t, r)
            keys = train[:, known] * n_rel + train[:, 2]
            uniq, counts = np.unique(keys, return_counts=True)
            n += int(counts[np.searchsorted(uniq, b[:, known] * n_rel + b[:, 2])].sum())
        targets.append(n)
    return {
        "batch_size": len(probe.batches[0]),
        "distinct_relations_ratio": distinct,
        "share_distinct_le_quarter": float(np.mean([d <= 0.25 for d in distinct])),
        "target_ids": targets,
    }


# -- evaluation workload --------------------------------------------------


def run_eval(meim, workload: Workload, seed: int, seconds: float, trace: bool,
             work: Path) -> RunResult:
    out = RunResult()
    out.details["graph"] = prepare(workload, seed, work)
    cache, checkpoint = work / "data.bin", work / "model.ckpt"
    reps = max(MIN_EVAL_REPS, round(seconds / workload.nominal_s))
    probe, patcher, tracer = _instrument(trace, out)

    setups, walls, rep_starts, traced_reps, reports = [], [], [], [], []
    try:
        for rep in range(reps):
            if tracer is not None:
                tracer.enabled = rep % 2 == 1  # even reps measure the untraced path
                if tracer.enabled:
                    traced_reps.append(rep)
            start = perf_counter()
            rep_starts.append(start)
            ckpt = meim.trainer.load_checkpoint(checkpoint)
            _, params, _ = ckpt.restore()
            store = meim.data.load_dataset(cache)
            mc = params.config
            if (mc.num_entities, mc.num_relations) != (store.num_entities, store.num_relations):
                raise ValueError("checkpoint and triple cache disagree on the vocabulary")
            index = meim.data.build_filter_index(store)
            setups.append(perf_counter() - start)
            reports.append(meim.evaluation.evaluate(params, store, "test", index))
            walls.append(perf_counter() - start)
    except Exception as exc:  # a failed operation is reported, not raised
        probe.fail(exc)
    finally:
        patcher.restore()
    end = perf_counter()

    out.attempted, out.failed = probe.attempted, probe.failed
    out.details["errors"] = probe.errors
    done = [e for e in probe.evals if e["end"] is not None]
    if done and len(done) == reps:
        untraced = [e for i, e in enumerate(done) if i not in traced_reps]
        steps, triples = [], []
        for e in untraced:
            s, n = probe.eval_steps(e)
            steps += s
            triples += n
        tail, pct = tail_percentile(steps)
        out.details["step_s"] = steps
        out.details["step_s_tail_percentile"] = pct
        kept = [i for i in range(reps) if i not in traced_reps]
        out.metrics = {
            "setup_s": (statistics.median(setups[i] for i in kept), "s"),
            "wall_s": (statistics.median(walls[i] for i in kept), "s"),
            "step_s_p50": (statistics.median(steps), "s"),
            "step_s_tail": (tail, "s"),
            "step_triples_per_s": (sum(triples) / sum(steps), "triples/s"),
            "eval_triples_per_s": (probe.eval_rate(untraced), "triples/s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }

    rng = np.random.default_rng(seed)
    ok = len(reports) == reps
    out.checks["reps_ran"] = ok and not probe.errors
    out.checks["reports_repeat"] = ok and len({(r.mrr, r.hits[10]) for r in reports}) == 1
    out.checks["triple_count"] = ok and reports[-1].triple_count == len(store.splits["test"])
    out.checks["mrr_in_range"] = ok and 0.0 < reports[-1].mrr <= 1.0
    out.checks["ranks_match_oracle"] = ok and check_ranks(meim, params, store, "test",
                                                          reports[-1], rng)
    out.checks["logits_match_score"] = ok and check_scores(meim, params, store.splits["test"],
                                                           rng)
    if tracer is not None:
        out.metrics, out.details["absent_metrics"], out.details["trace_overhead"] = (
            eval_layer_metrics(tracer, probe, rep_starts, end, traced_reps))
        out.details["spans"] = tracer.spans
    return out


# -- traced runs ------------------------------------------------------------

# span name -> dotted path of the library function it wraps
SPANS = {
    "trainer.train": "meim.trainer.train",
    "trainer.load_checkpoint": "meim.trainer.load_checkpoint",
    "trainer.save_checkpoint": "meim.trainer.save_checkpoint",
    "data.load_dataset": "meim.data.load_dataset",
    "data.build_filter_index": "meim.data.build_filter_index",
    "objective.build_targets": "meim.objective.build_targets",
    "objective.total_loss": "meim.objective.total_loss",
    "objective.ortho_loss": "meim.objective.ortho_loss",
    "model.bidirectional_logits": "meim.model.bidirectional_logits",
    "model.all_entity_logits": "meim.model.all_entity_logits",
    "tensor.softmax_cross_entropy_sparse": "meim.tensor.softmax_cross_entropy_sparse",
    "tensor.backward": "meim.tensor.backward",
    "optim.adam_step": "meim.optim.Adam.step",
    "evaluation.evaluate": "meim.evaluation.evaluate",
}
PEAK_SPANS = ("objective.total_loss", "tensor.backward")


def _tape_length(args, result):
    return len(args[0])


def install_spans(tracer: Tracer, patcher: Patcher) -> list[str]:
    absent = []
    for name, path in SPANS.items():
        capture = _tape_length if name == "tensor.backward" else None
        if not patcher.wrap(path, tracer.wrapper(name, capture)):
            absent.append(path)
    return absent


# per-layer metric -> unit; a metric whose layer did not run in a workload reads 0
LAYER_UNITS = {
    "model.bidirectional_logits_s": "s",
    "tensor.softmax_xent_s": "s",
    "tensor.backward_s": "s",
    "optim.adam_step_s": "s",
    "objective.ortho_loss_s": "s",
    "objective.total_loss_s": "s",
    "objective.build_targets_s": "s",
    "objective.target_ids_per_step": "count",
    "objective.total_loss_peak_mb": "MiB",
    "tensor.backward_peak_mb": "MiB",
    "tensor.tape_nodes": "count",
    "model.distinct_relations_per_batch": "ratio",
    "model.all_entity_logits_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.rank_s": "s",
    "data.load_s": "s",
    "data.filter_index_s": "s",
    "trainer.load_checkpoint_s": "s",
    "trainer.save_checkpoint_s": "s",
    "trainer.checkpoint_mb": "MiB",
    "trainer.step_self_s": "s",
    "trace.overhead_s": "s",
}
STEP_SPANS = {
    "model.bidirectional_logits_s": "model.bidirectional_logits",
    "tensor.softmax_xent_s": "tensor.softmax_cross_entropy_sparse",
    "tensor.backward_s": "tensor.backward",
    "optim.adam_step_s": "optim.adam_step",
    "objective.ortho_loss_s": "objective.ortho_loss",
    "objective.total_loss_s": "objective.total_loss",
    "objective.build_targets_s": "objective.build_targets",
}
SETUP_SPANS = {
    "data.load_s": "data.load_dataset",
    "data.filter_index_s": "data.build_filter_index",
    "trainer.load_checkpoint_s": "trainer.load_checkpoint",
}


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _setup_and_eval_layers(spans: list[Span], rep_starts, traced_reps, end) -> dict:
    own = self_times(spans)
    windows = [(rep_starts[i], rep_starts[i + 1] if i + 1 < len(rep_starts) else end)
               for i in traced_reps]
    seen = {s.name for s in spans}
    out = {metric: _median(totals_in(spans, name, a, b) for a, b in windows)
           if name in seen else None for metric, name in SETUP_SPANS.items()}
    evals = [i for i, s in enumerate(spans) if s.name == "evaluation.evaluate"]
    out["evaluation.evaluate_s"] = _median(spans[i].duration for i in evals)
    out["evaluation.rank_s"] = _median(own[i] for i in evals)
    if "model.all_entity_logits" in seen:
        out["model.all_entity_logits_s"] = _median(
            totals_in(spans, "model.all_entity_logits", spans[i].start, spans[i].end)
            for i in evals)
    return out


def _finish(values: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric as (value, unit), and the ones that did not run, which read 0."""
    absent = sorted(m for m in LAYER_UNITS if values.get(m) is None)
    metrics = {m: (float(values.get(m) or 0.0), unit) for m, unit in LAYER_UNITS.items()}
    return metrics, absent


def trace_overhead(spans_per_step: list[float], traced_steps: list[float],
                   untraced_steps: list[float]) -> tuple[float | None, dict]:
    """Tracing cost per step: spans recorded per traced step times the cost of one span.

    The difference of the median traced and untraced step times of the same
    run is kept beside it, with the quartile spread of the untraced steps. It
    is marked unresolved when it is smaller than that spread: machine noise,
    not the tracer's cost.
    """
    if not spans_per_step:
        return None, {}
    per_step, cost = statistics.median(spans_per_step), span_cost_s()
    detail = {"spans_per_step": per_step, "span_cost_s": cost}
    if traced_steps and len(untraced_steps) >= 2:
        diff = statistics.median(traced_steps) - statistics.median(untraced_steps)
        q1, _, q3 = statistics.quantiles(untraced_steps, n=4)
        detail.update(interleaved_diff_s=diff, untraced_iqr_s=q3 - q1,
                      resolved=abs(diff) > q3 - q1)
    return per_step * cost, detail


def train_layer_metrics(tracer: Tracer, probe: Probe, start: float, end: float, n_steps: int,
                        checkpoint: Path) -> tuple[dict, list[str], dict]:
    spans = tracer.spans
    values = _setup_and_eval_layers(spans, [start], [0], end)
    steps = probe.step_times()
    traced = [k for k in range(1, min(n_steps, len(steps)), 2)]
    untraced = [k for k in range(2, min(n_steps, len(steps)), 2)]
    seen = {s.name for s in spans}
    for metric, name in STEP_SPANS.items():
        if name in seen:
            values[metric] = _median(totals_in(spans, name, probe.bounds[k], probe.bounds[k + 1])
                                     for k in traced)
    trains = [i for i, s in enumerate(spans) if s.name == "trainer.train"]
    if trains and traced:
        windows = add_windows(spans, "trainer.step", probe.bounds, trains[-1])
        own = self_times(spans)
        values["trainer.step_self_s"] = _median(own[windows[k]] for k in traced)
    values["trace.overhead_s"], overhead = trace_overhead(
        [sum(1 for s in spans if probe.bounds[k] <= s.start < probe.bounds[k + 1])
         for k in traced],
        [steps[k] for k in traced], [steps[k] for k in untraced])
    saves = [s.duration for s in spans if s.name == "trainer.save_checkpoint"]
    if saves:
        values["trainer.save_checkpoint_s"] = sum(saves)
        values["trainer.checkpoint_mb"] = checkpoint.stat().st_size / 2**20
    for metric, name in (("objective.total_loss_peak_mb", "objective.total_loss"),
                         ("tensor.backward_peak_mb", "tensor.backward")):
        values[metric] = _median(tracer.peaks.get(name, []))
    values["tensor.tape_nodes"] = _median(tracer.extras.get("tensor.backward", []))
    stats = batch_stats(probe)
    if stats:
        values["objective.target_ids_per_step"] = _median(stats["target_ids"])
        values["model.distinct_relations_per_batch"] = _median(stats["distinct_relations_ratio"])
    return (*_finish(values), overhead)


def eval_layer_metrics(tracer: Tracer, probe: Probe, rep_starts, end: float,
                       traced_reps) -> tuple[dict, list[str], dict]:
    spans = tracer.spans
    done = [e for e in probe.evals if e["end"] is not None]
    values = _setup_and_eval_layers(spans, rep_starts, traced_reps, end)
    traced_steps, untraced_steps, spans_per_step = [], [], []
    for i, e in enumerate(done):
        steps = probe.eval_steps(e)[0]
        if i in traced_reps:
            traced_steps += steps
            inside = sum(1 for s in spans if e["start"] <= s.start < e["end"])
            spans_per_step.append(inside / len(steps))
        else:
            untraced_steps += steps
    values["trace.overhead_s"], overhead = trace_overhead(spans_per_step, traced_steps,
                                                          untraced_steps)
    return (*_finish(values), overhead)


RUNNERS = {"train": run_train, "eval": run_eval}


def run(meim, workload: Workload, seed: int, seconds: float, trace: bool,
        work: Path) -> RunResult:
    """Run one workload; `work` is a scratch directory the caller removes."""
    os.makedirs(work, exist_ok=True)
    return RUNNERS[workload.kind](meim, workload, seed, seconds, trace, work)
