"""Package-wide promises: numpy is the only runtime dependency outside the
standard library, `import meim` exports a fixed list of names, the library
starts no thread, every error it raises is a `MeimError`, and the functions
the benchmark binds by name exist and accept its calls."""

import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_store
from oracles import filtered_rank

import meim
from meim.data import batches, build_filter_index, load_dataset
from meim.errors import MeimError
from meim.evaluation import evaluate
from meim.model import ModelConfig, ModelParams, all_entity_logits, score
from meim.objective import build_targets, total_loss
from meim.optim import Adam
from meim.tensor import Tensor, dropout, matmul_softmax_cross_entropy
from meim.trainer import (Checkpoint, RunConfig, TrainResult, config_from_preset,
                          load_checkpoint, train)

PROBE = """
import json, sys
before = set(sys.modules)
import meim
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""

# one taped training step and one evaluation, counting Python threads around them
THREADS = """
import threading
import numpy as np
from meim.data import TripleStore, build_filter_index
from meim.evaluation import evaluate
from meim.model import ModelConfig, ModelParams
from meim.objective import build_targets, total_loss
from meim.tensor import GradTape, backward

rng = np.random.default_rng(0)
triples = np.stack([rng.integers(30, size=40), rng.integers(30, size=40),
                    rng.integers(3, size=40)], axis=1)
store = TripleStore.from_ids(30, 3, {"train": triples[:30], "valid": [], "test": triples[30:]})
params = ModelParams(ModelConfig(30, 3, k=2, ce=3, cr=3), rng=rng)
index = build_filter_index(store)
before = threading.active_count()
targets = build_targets(triples[:30], index, "kvsall")
with GradTape() as tape:
    loss, _ = total_loss(params, triples[:30], targets, training=True, rng=rng)
backward(tape, [t for _, t in params.leaves()])
evaluate(params, store, "test", index)
print(before, threading.active_count())
"""

# the untraced benchmark's hooks, printing the library paths that no longer exist
BENCH_BINDINGS = """
import json
import spans, workloads
print(json.dumps(workloads.Probe().install(spans.Patcher())))
"""

# the traced benchmark's spans, printing the library paths that no longer exist
BENCH_SPANS = """
import json
import spans, workloads
print(json.dumps(workloads.install_spans(spans.Tracer(), spans.Patcher())))
"""

# one evaluate at the default constants, seen through the benchmark's probe: the
# triples of each evaluation step it counts, the chunk evaluate takes and its cap;
# at 20,000 entities the 16 MiB score-block budget binds, at 104 triples a chunk, and
# repeated queries must not change the rows a tail-direction call carries
BENCH_EVAL_STEPS = """
import json
import numpy as np
import spans, workloads
import meim.evaluation
from meim.data import TripleStore, build_filter_index
from meim.model import ModelConfig, ModelParams

probe = workloads.Probe()
probe.install(spans.Patcher())
rng = np.random.default_rng(0)
# heads from a pool of 40, so about half the tail-direction query rows repeat
triples = np.stack([rng.integers(40, size=1400), rng.integers(20_000, size=1400),
                    rng.integers(7, size=1400)], axis=1)
store = TripleStore.from_ids(20_000, 7, {"train": triples[:300], "valid": [], "test": triples[300:]})
params = ModelParams(ModelConfig(20_000, 7, k=2, ce=3, cr=3), rng=rng)
meim.evaluation.evaluate(params, store, "test", build_filter_index(store))
chunk = meim.evaluation._chunk_rows(params.entity_emb.data)
print(json.dumps([probe.eval_steps(probe.evals[-1])[1], chunk, meim.evaluation._CHUNK_TRIPLES]))
"""

# one epoch of two taped steps at the WN18RR regularizer weights with both dropouts,
# seen through the benchmark's probe and spans: the tape length at each
# backward, and the losses read from total_loss against the logged mean
BENCH_TRAIN_STEPS = """
import json
import numpy as np
import spans, workloads
import meim
from meim.data import TripleStore
from meim.model import ModelConfig
from meim.trainer import RunConfig

probe, tracer, patcher = workloads.Probe(), spans.Tracer(), spans.Patcher()
probe.install(patcher)
workloads.install_spans(tracer, patcher)
rng = np.random.default_rng(0)
triples = np.stack([rng.integers(30, size=40), rng.integers(30, size=40),
                    rng.integers(3, size=40)], axis=1)
store = TripleStore.from_ids(30, 3, {"train": triples[:32], "valid": triples[32:], "test": []})
model = ModelConfig(30, 3, k=2, ce=3, cr=3, sampling="kvsall", input_dropout=0.2,
                    hidden_dropout=0.3, lambda_ortho=0.1, lambda_unitnorm=5e-4)
result = meim.train(RunConfig(model, batch_size=16, epochs=1, eval_every=1), store=store)
print(json.dumps([tracer.extras["tensor.backward"], probe.losses,
                  result.metrics_log[0]["train_loss"]]))
"""


def _run(code: str, *paths: str) -> str:
    src = str(Path(meim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, *paths, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_import_loads_only_stdlib_and_numpy():
    loaded = json.loads(_run(PROBE))
    assert "meim" in loaded and "numpy" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("numpy", "meim")]
    assert foreign == []


def test_public_names_are_pinned():
    # adding or removing a public name is an API change: update this list with it
    assert sorted(name for name, value in vars(meim).items()
                  if not name.startswith("_") and not inspect.ismodule(value)) == [
        "Adam", "Checkpoint", "FilterIndex", "GradTape", "MetricsReport", "ModelConfig",
        "ModelParams", "RunConfig", "Tensor", "TripleStore", "backward", "build_filter_index",
        "build_targets", "count_params", "evaluate", "finite_diff_check", "load_checkpoint",
        "load_triples", "ortho_loss", "save_checkpoint", "score", "total_loss", "train"]


# public names that nothing outside the tests calls yet, and why each may stay
UNCALLED = {"mean_orthogonality_gap": "until ROADMAP items 2 and 10"}


def test_every_public_function_has_a_caller_outside_the_tests():
    # a top-level public def or class of src/meim must appear as a word in the rest of
    # src/meim (its own definition and __init__.py aside) or in bench/*.py; code that
    # only the tests call belongs in the tests
    root = Path(__file__).resolve().parents[1]
    library = {path: path.read_text(encoding="utf-8")
               for path in (root / "src" / "meim").glob("*.py") if path.name != "__init__.py"}
    bench = "\n".join(path.read_text(encoding="utf-8") for path in (root / "bench").glob("*.py"))
    uncalled = []
    for path, text in library.items():
        lines = text.splitlines()
        others = "\n".join(other for name, other in library.items() if name != path)
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                rest = "\n".join([*lines[:node.lineno - 1], *lines[node.end_lineno:], others, bench])
                if not re.search(rf"\b{node.name}\b", rest):
                    uncalled.append(node.name)
    assert sorted(uncalled) == sorted(UNCALLED)


def test_training_and_evaluation_start_no_thread():
    before, after = map(int, _run(THREADS).split())
    assert after == before


def test_every_function_the_benchmark_binds_exists():
    bench = Path(__file__).resolve().parents[1] / "bench"
    assert json.loads(_run(BENCH_BINDINGS, str(bench))) == []


def test_only_the_two_stale_spans_are_absent():
    # the traced benchmark still names two functions that were replaced (the
    # hidden rows and the fused scoring loss); no other span may vanish
    bench = Path(__file__).resolve().parents[1] / "bench"
    assert json.loads(_run(BENCH_SPANS, str(bench))) == [
        "meim.model.bidirectional_logits", "meim.tensor.softmax_cross_entropy_sparse"]


def test_benchmark_counts_one_evaluation_step_per_chunk():
    # the probe starts a step at each tail-direction all_entity_logits call inside
    # evaluate and counts len(args[1]) triples, so the evaluation order must keep
    # one such call per chunk, and every triple in exactly one
    bench = Path(__file__).resolve().parents[1] / "bench"
    steps, chunk, cap = json.loads(_run(BENCH_EVAL_STEPS, str(bench)))
    assert chunk == 104 < cap
    assert len(steps) == math.ceil(1100 / chunk) and sum(steps) == 1100


def test_benchmark_reads_ten_tape_nodes_and_the_logged_loss():
    # the traced benchmark reports the tape length at each backward call as
    # tensor.tape_nodes, and its probe reads the loss as total_loss(...)[0]
    bench = Path(__file__).resolve().parents[1] / "bench"
    nodes, losses, logged = json.loads(_run(BENCH_TRAIN_STEPS, str(bench)))
    assert nodes == [10, 10]
    assert len(losses) == 2 and float(np.mean(losses)) == logged


# each call the benchmark makes into the library, in the shape it has there
# (bench/workloads.py), which the tier-1 tests do not run
BENCH_CALLS = {
    "evaluate": (evaluate, ("params", "store", "test", "index"), {}),
    "all-entity-logits": (all_entity_logits, ("params", "h", "r", "tail"), {}),
    "all-entity-logits-out": (all_entity_logits, ("params", "h", "r", "tail"), {"out": "buf"}),
    "score": (score, ("params", "h", "t", "r"), {}),
    "config-from-preset": (config_from_preset, ("preset", "store", "flags"), {}),
    "load-checkpoint": (load_checkpoint, ("path",), {}),
    "load-dataset": (load_dataset, ("path",), {}),
    "build-filter-index": (build_filter_index, ("store",), {}),
    "train": (meim.train, ("config",), {"store": "store"}),
}


@pytest.mark.parametrize("function, args, kwargs", BENCH_CALLS.values(), ids=BENCH_CALLS.keys())
def test_every_call_the_benchmark_makes_binds(function, args, kwargs):
    inspect.signature(function).bind(*args, **kwargs)  # TypeError if the signature moved


def test_every_result_attribute_the_benchmark_reads_exists():
    # bench/workloads.py reads `train(...).params` and calls `load_checkpoint(...).restore()`
    assert "params" in {field.name for field in dataclasses.fields(TrainResult)}
    inspect.signature(Checkpoint.restore).bind("checkpoint")


def _tiny():
    store = random_store(6, 2, n_train=8, n_test=3, seed=0)
    params = ModelParams(ModelConfig(6, 2, k=1, ce=2, cr=2), rng=np.random.default_rng(0))
    return store, params, build_filter_index(store)


BAD_CALLS = {
    "batches-batch-size": lambda s, p, i: next(batches(s, "train", 0, seed=0)),
    "tie-policy": lambda s, p, i: evaluate(p, s, "test", i, tie_policy="random"),
    "evaluate-unknown-split": lambda s, p, i: evaluate(p, s, "dev", i),
    "evaluate-other-vocabulary": lambda s, p, i: evaluate(
        ModelParams(ModelConfig(7, 2, k=1, ce=2, cr=2)), s, "test", i),
    "direction": lambda s, p, i: all_entity_logits(p, [0], [0], "sideways"),
    "logits-out-shape": lambda s, p, i: all_entity_logits(p, [0, 1], [0, 1], "tail",
                                                          out=np.empty((3, 6))),
    "logits-out-float32": lambda s, p, i: all_entity_logits(p, [0, 1], [0, 1], "tail",
                                                            out=np.empty((2, 6), np.float32)),
    "logits-out-not-contiguous": lambda s, p, i: all_entity_logits(
        p, [0, 1], [0, 1], "tail", out=np.empty((2, 12))[:, ::2]),
    "sampling": lambda s, p, i: build_targets(s.splits["train"], i, "negative"),
    "rank-negative-true-id": lambda s, p, i: filtered_rank(np.zeros(5), -1, []),
    "rank-true-id-past-the-scores": lambda s, p, i: filtered_rank(np.zeros(5), 9, []),
    "rank-filter-id-past-the-scores": lambda s, p, i: filtered_rank(np.zeros(5), 0, [2, 5]),
    "xent-hidden-not-2d": lambda s, p, i: matmul_softmax_cross_entropy(
        np.zeros(3), np.zeros((4, 3)), [0, 1], [0], [1.0], 1.0),
    "xent-width": lambda s, p, i: matmul_softmax_cross_entropy(
        np.zeros((1, 2)), np.zeros((4, 3)), [0, 1], [0], [1.0], 1.0),
    "xent-target-rows": lambda s, p, i: matmul_softmax_cross_entropy(
        np.zeros((1, 3)), np.zeros((4, 3)), [0, 1, 1], [0], [1.0], 1.0),
    "xent-empty-target-row": lambda s, p, i: matmul_softmax_cross_entropy(
        np.zeros((2, 3)), np.zeros((4, 3)), [0, 1, 1], [0], [1.0], 1.0),
    "dropout-rate": lambda s, p, i: dropout(np.zeros(3), 1.0, None, training=True),
    "dropout-generator": lambda s, p, i: dropout(np.zeros(3), 0.5, None, training=True),
    "config-dropout": lambda s, p, i: ModelConfig(6, 2, k=1, ce=2, cr=2, input_dropout=1.0),
    "config-core-mode": lambda s, p, i: ModelConfig(6, 2, k=1, ce=2, cr=2, core_mode="tied"),
    "config-sampling": lambda s, p, i: ModelConfig(6, 2, k=1, ce=2, cr=2, sampling="negative"),
    "adam-missing-gradients": lambda s, p, i: Adam().step(p.leaves(), [], lr=0.1),
    "adam-nan-lr": lambda s, p, i: Adam().step([("w", Tensor(np.zeros(3)))], [np.ones(3)],
                                               float("nan")),
    "adam-inf-lr": lambda s, p, i: Adam().step([("w", Tensor(np.zeros(3)))], [np.ones(3)],
                                               float("inf")),
    "total-loss-empty-batch": lambda s, p, i: total_loss(
        p, np.zeros((0, 3), dtype=np.int64), build_targets(np.zeros((0, 3), np.int64), i, "1vsall")),
    "train-without-data": lambda s, p, i: train(RunConfig(p.config)),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_argument_errors_are_meim_errors(call):
    with pytest.raises(MeimError):
        call(*_tiny())
