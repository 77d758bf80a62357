"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The two WN18RR training
targets are multi-hour runs and are marked `extended`; they are excluded
from the default suite and require MEIM_WN18RR_DIR to point at a standard
WN18RR directory (train.txt / valid.txt / test.txt).
"""

import os
import time

import numpy as np
import pytest
from conftest import random_store
from oracles import (
    blockterm_score,
    brute_force_score,
    complex_trilinear_score,
    exhaustive_rank,
    known_heads,
    known_tails,
    make_special_case,
    trilinear_score,
)

from meim.data import build_filter_index, load_triples
import meim.tensor as T
from meim.evaluation import evaluate
from meim.model import (
    ModelConfig,
    ModelParams,
    count_params,
    mean_orthogonality_gap,
    score,
)
from meim.objective import build_targets, total_loss
from meim.tensor import finite_diff_check
from meim.trainer import PRESETS, RunConfig, train

WN18RR_DIR = os.environ.get("MEIM_WN18RR_DIR")


def report(name, detail):
    print(f"\n[acceptance] {name}: PASS ({detail})")


def test_gradient_audit():
    """Analytic gradients of the total loss match central finite differences."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    config = ModelConfig(7, 3, k=2, ce=3, cr=3, lambda_ortho=0.1, lambda_unitnorm=5e-4,
                         p_norm=3, seed=0)
    params = ModelParams(config, rng=rng)
    store = random_store(7, 3, n_train=12, seed=0)
    index = build_filter_index(store, ("train",))
    batch = store.splits["train"][:8]

    worst = 0.0
    for sampling in ("1vsall", "kvsall"):
        targets = build_targets(batch, index, sampling)

        def loss_fn(_):
            loss, _parts = total_loss(params, batch, targets, training=True, rng=None)
            return loss

        err = finite_diff_check(loss_fn, [t for _, t in params.leaves()])
        assert err < 1e-4, f"{sampling}: max relative error {err:.3e} >= 1e-4"
        worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s >= 60s"
    report("gradient audit", f"max rel err {worst:.2e} < 1e-4 in {elapsed:.1f}s")


def test_score_form_equivalence():
    """`score` agrees with the block-term order and the five-nested-loop oracle on 100 configs."""
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 4))
        ce = int(rng.integers(1, 5))
        cr = int(rng.integers(1, 5))
        core_mode = "shared" if rng.random() < 0.5 else "independent"
        config = ModelConfig(5, 2, k=k, ce=ce, cr=cr, core_mode=core_mode,
                             batchnorm=False, seed=trial)
        params = ModelParams(config, rng=rng)
        h, t = (int(x) for x in rng.integers(5, size=2))
        r = int(rng.integers(2))
        s_bilinear = score(params, h, t, r)
        raw = (params.core.data, params.entity_emb.data[h], params.entity_emb.data[t],
               params.relation_emb.data[r])
        for oracle in (brute_force_score, blockterm_score):
            expected = oracle(*raw)
            err = abs(s_bilinear - expected) / max(1.0, abs(expected))
            assert err <= 1e-10, (f"trial {trial}: |{s_bilinear} - {oracle.__name__} {expected}|"
                                  f" = {err:.2e} relative")
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"score equivalence took {elapsed:.1f}s >= 30s"
    report("score-form equivalence", f"100 configs, worst rel dev {worst:.2e} <= 1e-10")


def test_subsumption_oracles():
    """The special-case constructors reproduce DistMult, ComplEx, and RESCAL."""
    rng = np.random.default_rng(2)

    # DistMult: exact trilinear sum over partitions
    params = make_special_case("distmult", num_entities=40, num_relations=8, k=7, rng=rng)
    for _ in range(200):
        h, t = (int(x) for x in rng.integers(40, size=2))
        r = int(rng.integers(8))
        expected = trilinear_score(
            params.entity_emb.data[h].ravel(), params.entity_emb.data[t].ravel(),
            params.relation_emb.data[r].ravel(),
        )
        assert score(params, h, t, r) == expected

    # ComplEx: mapping blocks equal the rotation-scaling pattern, and scores
    # match complex arithmetic on 1000 random partitions (200 samples x K=5)
    params = make_special_case("complex", num_entities=100, num_relations=20, k=5, rng=rng)
    mappings = T.relation_mappings(params.core, params.relation_emb).data  # one per relation
    for rel in range(20):
        for k in range(5):
            r0, r1 = params.relation_emb.data[rel, k]
            np.testing.assert_array_equal(mappings[rel, k], [[r0, -r1], [r1, r0]])
    partitions = 0
    for _ in range(200):
        h, t = (int(x) for x in rng.integers(100, size=2))
        r = int(rng.integers(20))
        expected = complex_trilinear_score(
            params.entity_emb.data[h], params.entity_emb.data[t], params.relation_emb.data[r]
        )
        got = score(params, h, t, r)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
        partitions += 5
    assert partitions == 1000
    report("subsumption oracles", "distmult exact, complex blocks and 1000 partitions OK")


def test_parameter_count_parity():
    cases = [
        ("fb15k-237 3x100", ModelConfig(14541, 237, k=3, ce=100, cr=100), 7_433_400),
        ("wn18rr 3x100", ModelConfig(40943, 11, k=3, ce=100, cr=100), 15_286_200),
        ("yago3-10 5x100", ModelConfig(123182, 37, k=5, ce=100, cr=100), 66_609_500),
    ]
    for name, config, expected in cases:
        got = count_params(config)
        assert got == expected, f"{name}: {got} != {expected}"
    report("parameter-count parity", ", ".join(f"{c:,}" for _, _, c in cases))


def test_evaluation_oracle():
    """Filtered metrics equal an exhaustive per-corruption re-ranking oracle."""
    store = random_store(30, 3, n_train=40, n_valid=0, n_test=50, seed=3)
    config = ModelConfig(30, 3, k=2, ce=3, cr=3, batchnorm=False, seed=3)
    params = ModelParams(config, rng=np.random.default_rng(3))
    index = build_filter_index(store)

    result = evaluate(params, store, "test", index)

    ranks = []
    for h, t, r in store.splits["test"]:
        h, t, r = int(h), int(t), int(r)
        tail_filter = sorted(set(known_tails(store, h, r)) - {t})
        ranks.append(exhaustive_rank(lambda e: score(params, h, e, r), 30, t, tail_filter))
        head_filter = sorted(set(known_heads(store, t, r)) - {h})
        ranks.append(exhaustive_rank(lambda e: score(params, e, t, r), 30, h, head_filter))
    ranks = np.array(ranks)
    oracle_mrr = float((1.0 / ranks).mean())
    assert result.mrr == oracle_mrr
    for k in (1, 3, 10):
        assert result.hits[k] == float((ranks <= k).mean())
    report("evaluation oracle", f"50 triples, MRR {result.mrr:.4f} matches exactly")


def test_soft_orthogonality_behavior():
    """lambda_ortho = 10 drives the mapping Gram gap below 0.05; 0 leaves it high."""
    store = random_store(12, 2, n_train=30, seed=21)
    gaps = {}
    for lam in (10.0, 0.0):
        config = ModelConfig(12, 2, k=2, ce=4, cr=4, sampling="1vsall",
                             lambda_ortho=lam, lambda_unitnorm=5e-4, seed=5)
        run = RunConfig(model=config, base_lr=1e-2, batch_size=30, epochs=200,
                        eval_every=200, eval_split="train", seed=5)
        gaps[lam] = mean_orthogonality_gap(train(run, store=store).params)
    assert gaps[10.0] < 0.05, f"regularized gap {gaps[10.0]:.4f} >= 0.05"
    assert gaps[0.0] > 0.5, f"unregularized gap {gaps[0.0]:.4f} <= 0.5"
    report("soft-orthogonality behavior",
           f"gap {gaps[10.0]:.4f} < 0.05 with penalty, {gaps[0.0]:.3f} > 0.5 without")


def _wn18rr_desk_config(store, core_mode: str, checkpoint=None, log=None) -> RunConfig:
    preset = PRESETS["wn18rr"]
    model = ModelConfig(
        store.num_entities, store.num_relations, k=3, ce=10, cr=10, core_mode=core_mode,
        input_dropout=preset["input_dropout"], hidden_dropout=preset["hidden_dropout"],
        lambda_ortho=preset["lambda_ortho"], lambda_unitnorm=preset["lambda_unitnorm"],
        p_norm=preset["p_norm"], sampling=preset["sampling"], seed=0,
    )
    return RunConfig(model=model, base_lr=preset["base_lr"], lr_decay=preset["lr_decay"],
                     batch_size=preset["batch_size"], epochs=500, eval_every=25,
                     eval_split="valid", seed=0, checkpoint_path=checkpoint, log_path=log)


def test_desk_scale_config_shape():
    """Fast guard for the extended runs: preset plumbing and the ~1.2M size."""
    store = random_store(40943, 11, n_train=10, seed=0)
    config = _wn18rr_desk_config(store, "independent")
    assert count_params(config.model) == 1_231_620
    assert config.model.sampling == "kvsall"
    assert config.model.input_dropout == 0.71
    assert config.model.lambda_ortho == 0.1
    assert config.model.lambda_unitnorm == 5e-4
    assert config.batch_size == 1024
    assert config.lr_decay == 0.99775
    assert config.epochs >= 500
    shared = _wn18rr_desk_config(store, "shared")
    assert shared.model.core_mode == "shared"


@pytest.mark.extended
@pytest.mark.skipif(WN18RR_DIR is None, reason="set MEIM_WN18RR_DIR to run")
def test_desk_scale_wn18rr_training():
    """~1.2M-parameter WN18RR run with preset hyperparameters reaches MRR >= 0.42."""
    store = load_triples(WN18RR_DIR)
    config = _wn18rr_desk_config(store, "independent")
    assert count_params(config.model) == pytest.approx(1.2e6, rel=0.05)
    result = train(config, store=store, progress=print)
    assert result.best_val_mrr >= 0.42, f"validation MRR {result.best_val_mrr:.4f} < 0.42"
    report("desk-scale training", f"validation MRR {result.best_val_mrr:.4f} >= 0.42")


@pytest.mark.extended
@pytest.mark.skipif(WN18RR_DIR is None, reason="set MEIM_WN18RR_DIR to run")
def test_desk_scale_core_mode_ablation():
    """Independent cores are not inferior to a shared core at desk scale."""
    store = load_triples(WN18RR_DIR)
    independent = train(_wn18rr_desk_config(store, "independent"), store=store,
                        progress=print).best_val_mrr
    shared = train(_wn18rr_desk_config(store, "shared"), store=store,
                   progress=print).best_val_mrr
    assert independent >= shared - 0.005, f"independent {independent:.4f} vs shared {shared:.4f}"
    report("core-mode ablation", f"independent {independent:.4f} >= shared {shared:.4f} - 0.005")
