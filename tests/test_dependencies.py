"""Package-wide promises: numpy is the only runtime dependency outside the
standard library, the library starts no thread, every error it raises is a
`MeimError`, and the functions the benchmark binds by name exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_store

import meim
from meim.data import batches, build_filter_index
from meim.errors import MeimError
from meim.evaluation import evaluate, filtered_rank
from meim.model import ModelConfig, ModelParams, all_entity_logits, score
from meim.objective import build_targets

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
backward(tape, loss, [t for _, t in params.leaves()])
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


def _tiny():
    store = random_store(6, 2, n_train=8, n_test=3, seed=0)
    params = ModelParams(ModelConfig(6, 2, k=1, ce=2, cr=2), rng=np.random.default_rng(0))
    return store, params, build_filter_index(store)


BAD_CALLS = {
    "batches-batch-size": lambda s, p, i: next(batches(s, "train", 0, seed=0)),
    "tie-policy": lambda s, p, i: evaluate(p, s, "test", i, tie_policy="random"),
    "evaluate-batch-size": lambda s, p, i: evaluate(p, s, "test", i, batch_size=0),
    "direction": lambda s, p, i: all_entity_logits(p, [0], [0], "sideways"),
    "score-mode": lambda s, p, i: score(p, 0, 1, 0, mode="trilinear"),
    "sampling": lambda s, p, i: build_targets(s.splits["train"], i, "negative"),
    "rank-negative-true-id": lambda s, p, i: filtered_rank(np.zeros(5), -1, []),
    "rank-true-id-past-the-scores": lambda s, p, i: filtered_rank(np.zeros(5), 9, []),
    "rank-filter-id-past-the-scores": lambda s, p, i: filtered_rank(np.zeros(5), 0, [2, 5]),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_argument_errors_are_meim_errors(call):
    with pytest.raises(MeimError):
        call(*_tiny())
