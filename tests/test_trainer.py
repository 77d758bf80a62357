"""Training loop behavior, checkpoint format, resume semantics."""

import dataclasses
import json
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import random_store

from meim.data import TripleStore, save_cache
from meim.errors import CheckpointError, ConfigError, DivergenceError
from meim.model import ModelConfig, all_entity_logits, entity_minor, score, state_shapes
from meim import trainer
from meim.trainer import (
    Checkpoint,
    RunConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)


def toy_run_config(store, epochs=50, eval_every=10, seed=0, **model_kw):
    model_kw.setdefault("k", 2)
    model_kw.setdefault("ce", 4)
    model_kw.setdefault("cr", 4)
    model_kw.setdefault("sampling", "1vsall")
    mc = ModelConfig(store.num_entities, store.num_relations, seed=seed, **model_kw)
    return RunConfig(model=mc, base_lr=1e-2, lr_decay=1.0, batch_size=16, epochs=epochs,
                     eval_every=eval_every, eval_split="train", seed=seed)


@pytest.fixture(scope="module")
def memorization_result(tmp_path_factory):
    store = random_store(8, 2, n_train=10, seed=1)
    config = toy_run_config(store, epochs=300, eval_every=25, seed=2)
    path = tmp_path_factory.mktemp("memorization") / "best.ckpt"
    return store, config, train(dataclasses.replace(config, checkpoint_path=str(path)), store=store)


class TestTraining:
    def test_toy_graph_is_memorized(self, memorization_result):
        _, _, result = memorization_result
        assert result.best_val_mrr == 1.0

    def test_model_selection_matches_log(self, memorization_result):
        _, _, result = memorization_result
        logged = max(event["val_mrr"] for event in result.metrics_log)
        assert result.best_val_mrr == logged
        assert load_checkpoint(result.best_path).best_val_mrr == logged
        first = next(event["epoch"] for event in result.metrics_log if event["val_mrr"] == logged)
        assert result.best_epoch == first

    def test_epochs_zero_rejected(self):
        store = random_store(8, 2, n_train=10, seed=1)
        with pytest.raises(ConfigError):
            toy_run_config(store, epochs=0)

    @pytest.mark.parametrize("name, value", [("tie_policy", "random"), ("eval_split", "dev"),
                                             ("seed", -1)])
    def test_invalid_run_setting_rejected(self, name, value):
        # caught here, not at the first evaluation after eval_every epochs
        with pytest.raises(ConfigError, match=name):
            RunConfig(ModelConfig(8, 2, k=1, ce=2, cr=2), **{name: value})

    @pytest.mark.parametrize("name, value", [("lambda_ortho", math.nan), ("lambda_ortho", math.inf),
                                             ("lambda_unitnorm", math.nan), ("base_lr", math.nan),
                                             ("base_lr", math.inf)])
    def test_non_finite_hyperparameter_rejected(self, name, value):
        # NaN fails every comparison: a NaN lambda_ortho would train with no penalty
        model = {name: value} if name.startswith("lambda") else {}
        run = {} if model else {name: value}
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            RunConfig(ModelConfig(8, 2, k=1, ce=2, cr=2, **model), **run)

    def test_negative_model_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ModelConfig(8, 2, k=1, ce=2, cr=2, seed=-1)

    def test_seed_reproduces_log_exactly(self):
        store = random_store(9, 2, n_train=12, seed=3)
        config = toy_run_config(store, epochs=3, eval_every=1, seed=7)
        log_a = train(config, store=store).metrics_log
        log_b = train(config, store=store).metrics_log
        assert log_a == log_b  # bitwise: identical floats in every event

    def test_different_seed_changes_trajectory(self):
        store = random_store(9, 2, n_train=12, seed=3)
        a = train(toy_run_config(store, epochs=2, eval_every=1, seed=1), store=store)
        b = train(toy_run_config(store, epochs=2, eval_every=1, seed=2), store=store)
        assert a.metrics_log[0]["train_loss"] != b.metrics_log[0]["train_loss"]

    def test_smoothed_loss_monotonicity(self, memorization_result):
        store, config, _ = memorization_result
        fine = train(
            RunConfig(model=config.model, base_lr=1e-2, batch_size=16, epochs=120,
                      eval_every=1, eval_split="train", seed=config.seed),
            store=store,
        )
        losses = np.array([event["train_loss"] for event in fine.metrics_log])
        windows = losses[: len(losses) // 20 * 20].reshape(-1, 20).mean(axis=1)
        assert np.all(np.diff(windows) <= 1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_batch_and_last_loss(self):
        store = random_store(8, 2, n_train=10, seed=1)
        # lr large enough that squaring the exploded parameters overflows
        mc = toy_run_config(store, batchnorm=False).model
        config = RunConfig(model=mc, base_lr=1e200, batch_size=16, epochs=3,
                           eval_every=10, eval_split="train")
        with pytest.raises(DivergenceError, match="batch"):
            train(config, store=store)

    def test_nan_hidden_rows_diverge_without_a_warning(self, monkeypatch):
        store = random_store(8, 2, n_train=10, seed=1)
        config = toy_run_config(store, batchnorm=False)
        make = trainer.ModelParams

        def poisoned(mc):
            params = make(mc)
            params.relation_emb.data[0] = np.nan  # relation 0's hidden rows, not the table
            return params

        monkeypatch.setattr(trainer, "ModelParams", poisoned)
        with pytest.raises(DivergenceError, match="non-finite loss nan at epoch 0 batch 0"):
            train(config, store=store)

    def test_mismatched_store_rejected(self):
        store = random_store(8, 2, n_train=10, seed=1)
        other = random_store(5, 2, n_train=6, seed=1)
        config = toy_run_config(store)
        with pytest.raises(ConfigError, match="store"):
            train(config, store=other)

    @pytest.mark.parametrize("fault, expected", [
        ("train", "split 'train' is empty"),
        ("valid", "split 'valid' is empty"),
        ("directory", "gone/run.ckpt: the checkpoint's directory does not exist"),
    ], ids=["empty-train", "empty-eval-split", "missing-checkpoint-directory"])
    def test_unusable_run_rejected_before_the_first_step(self, tmp_path, monkeypatch, fault,
                                                         expected):
        store = random_store(8, 2, n_train=10, n_valid=3, seed=1)
        if fault in store.splits:
            store.splits[fault] = store.splits[fault][:0]
        folder = tmp_path / ("gone" if fault == "directory" else "run")
        config = dataclasses.replace(toy_run_config(store), eval_split="valid",
                                     checkpoint_path=str(folder / "run.ckpt"),
                                     log_path=str(tmp_path / "run.log"))

        def build_filter_index(*args):
            raise AssertionError("answer index built before the run was checked")

        monkeypatch.setattr(trainer, "build_filter_index", build_filter_index)
        (tmp_path / "run").mkdir()
        with pytest.raises(ConfigError, match=expected):
            train(config, store=store)
        assert [path.name for path in tmp_path.iterdir()] == ["run"]
        assert list((tmp_path / "run").iterdir()) == []

    def test_data_dir_may_be_a_cache_file(self, tmp_path):
        store = random_store(8, 2, n_train=10, seed=1)
        save_cache(store, tmp_path / "data.bin")
        config = dataclasses.replace(toy_run_config(store, epochs=2, eval_every=1),
                                     data_dir=str(tmp_path / "data.bin"))
        assert train(config).metrics_log == train(config, store=store).metrics_log


class TestGeneralization:
    def test_cluster_structure_transfers_to_held_out_pairs(self):
        # bipartite cluster blocks: members of cluster 2c relate to every
        # member of cluster 2c+1; a quarter of the pairs are held out, so a
        # high validation MRR requires transfer, not memorization (chance
        # filtered MRR here is below 0.1)
        rng = np.random.default_rng(0)
        pairs = np.array(
            [(a, b, 0) for c in range(3)
             for a in range(c * 20, c * 20 + 10)
             for b in range(c * 20 + 10, c * 20 + 20)],
            dtype=np.int32,
        )
        perm = rng.permutation(len(pairs))
        store = TripleStore.from_ids(
            60, 1,
            {"train": pairs[perm[:240]], "valid": pairs[perm[240:]], "test": pairs[:0]},
        )
        mc = ModelConfig(60, 1, k=2, ce=4, cr=4, sampling="kvsall", seed=3)
        config = RunConfig(model=mc, base_lr=5e-3, batch_size=64, epochs=60, eval_every=60,
                           eval_split="valid", seed=3)
        result = train(config, store=store)
        assert result.best_val_mrr > 0.9

    @pytest.mark.parametrize("core_mode", ["independent", "shared"])
    def test_both_core_modes_learn(self, core_mode):
        # the ablation harness: same data and budget, either core bank
        rng = np.random.default_rng(0)
        pairs = np.array(
            [(a, b, 0) for c in range(3)
             for a in range(c * 20, c * 20 + 10)
             for b in range(c * 20 + 10, c * 20 + 20)],
            dtype=np.int32,
        )
        perm = rng.permutation(len(pairs))
        store = TripleStore.from_ids(
            60, 1,
            {"train": pairs[perm[:240]], "valid": pairs[perm[240:]], "test": pairs[:0]},
        )
        mc = ModelConfig(60, 1, k=2, ce=4, cr=4, sampling="kvsall",
                         core_mode=core_mode, seed=3)
        config = RunConfig(model=mc, base_lr=5e-3, batch_size=64, epochs=60, eval_every=60,
                           eval_split="valid", seed=3)
        assert train(config, store=store).best_val_mrr > 0.9


class TestCheckpointFormat:
    def test_save_load_round_trip_is_bitwise(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        best = load_checkpoint(result.best_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(best, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == best.epoch == result.best_epoch
        assert loaded.best_val_mrr == best.best_val_mrr
        assert loaded.adam_t == best.adam_t
        assert set(loaded.arrays) == set(best.arrays)
        for name, arr in best.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[name], arr)

    def test_restore_rebuilds_identical_params(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        best = load_checkpoint(trainer.last_path(result.best_path))  # the file with an optimizer
        path = tmp_path / "model.ckpt"
        save_checkpoint(best, path)
        _, params, adam = load_checkpoint(path).restore()
        for name, arr in params.state_arrays().items():
            np.testing.assert_array_equal(arr, best.arrays[name])
        assert adam.t == best.adam_t

    def test_restore_takes_over_the_loaded_arrays(self, memorization_result):
        _, _, result = memorization_result
        ckpt = load_checkpoint(trainer.last_path(result.best_path))  # the file with moments
        _, params, adam = ckpt.restore()
        restored = {**params.state_arrays(), **adam.state_arrays()}
        assert restored.keys() == ckpt.arrays.keys()
        assert any(name.startswith("adam.v.") for name in restored)
        for name, arr in restored.items():
            assert np.shares_memory(arr, ckpt.arrays[name]), name

    def test_best_file_holds_the_model_alone_and_restores_without_an_optimizer(
            self, memorization_result):
        _, config, result = memorization_result
        ckpt = load_checkpoint(result.best_path)
        assert list(ckpt.arrays) == list(state_shapes(config.model))  # no adam.* array
        assert ckpt.best_epoch is None and load_checkpoint(trainer.last_path(result.best_path)
                                                           ).best_epoch == ckpt.epoch
        _, params, adam = ckpt.restore()
        assert adam is None
        for name, arr in params.state_arrays().items():
            assert np.shares_memory(arr, ckpt.arrays[name]), name

    def test_loaded_model_scores_bitwise_like_the_trained_one(self, tmp_path):
        # one-row products are small enough that OpenBLAS picks its kernel by the
        # table's layout (see test_tensor), so only a table loaded in the layout it
        # trained in gives the trained model's bits
        store = random_store(900, 3, n_train=60, seed=8)
        config = dataclasses.replace(toy_run_config(store, epochs=1, eval_every=1, k=2, ce=3,
                                                    cr=3), checkpoint_path=str(tmp_path / "m.ckpt"))
        result = train(config, store=store)  # one evaluation: the best model is the last
        _, loaded, _ = load_checkpoint(result.best_path).restore()
        differ = [(e, direction) for direction in ("tail", "head") for e in range(900)
                  if not np.array_equal(all_entity_logits(result.params, [e], [e % 3], direction).data,
                                        all_entity_logits(loaded, [e], [e % 3], direction).data)]
        assert differ == []

    def test_bytes_are_pinned(self, tmp_path):
        ckpt = Checkpoint({"seed": 1}, {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])},
                          adam_t=3, epoch=2, best_val_mrr=0.25)
        meta = json.dumps({"run_config": {"seed": 1}, "epoch": 2, "best_val_mrr": 0.25,
                           "adam_t": 3}).encode()
        expected = (b"MEIMCKPT" + struct.pack("<H", 1) + struct.pack("<I", len(meta)) + meta
                    + struct.pack("<I", 2)
                    + struct.pack("<H", 1) + b"w" + struct.pack("<B2I", 2, 2, 3)
                    + struct.pack("<6d", 0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
                    + struct.pack("<H", 1) + b"b" + struct.pack("<BI", 1, 1) + struct.pack("<d", 0.5))
        save_checkpoint(ckpt, tmp_path / "pinned.ckpt")
        assert (tmp_path / "pinned.ckpt").read_bytes() == expected

    def test_bytes_do_not_depend_on_where_the_run_wrote(self, tmp_path):
        store = random_store(6, 2, n_train=8, seed=4)
        config = toy_run_config(store, epochs=2, eval_every=1, k=1, ce=2, cr=2)
        blobs = []
        for where in ("first", "second/nested"):
            (tmp_path / where).mkdir(parents=True)
            path = tmp_path / where / "model.ckpt"
            train(dataclasses.replace(config, checkpoint_path=str(path),
                                      log_path=str(tmp_path / where / "log.jsonl")), store=store)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        run_config = load_checkpoint(path).run_config
        assert [run_config[key] for key in ("data_dir", "checkpoint_path", "log_path")] == [None] * 3

    def test_golden_checkpoint_resaves_byte_for_byte(self, tmp_path):
        """A checkpoint written by an earlier version reads, restores and saves unchanged.

        tests/data/golden.ckpt was written by commit 884f42e: `train` on
        `random_store(7, 3, n_train=12, n_valid=4, n_test=4, seed=3)` with K=2,
        Ce=Cr=3, batch norm per partition, both dropouts, both regularizers and
        nine Adam steps (batch 4, 3 epochs, `save_checkpoint` of the best
        checkpoint). A renamed, reordered or reshaped array changes the bytes.
        """
        golden = Path(__file__).parent / "data" / "golden.ckpt"
        ckpt = load_checkpoint(golden)
        config, params, adam = ckpt.restore()
        again = Checkpoint.capture(config, params, adam, ckpt.epoch, ckpt.best_val_mrr)
        save_checkpoint(again, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == golden.read_bytes()
        pinned = {(0, 1, 0): 0.7442313703683868, (2, 5, 1): -0.2993050899398043,
                  (6, 3, 2): 0.064762620260338, (4, 4, 1): 2.312663428270943}
        assert {triple: score(params, *triple) for triple in pinned} == pinned

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        path = tmp_path / "model.ckpt"
        path.write_bytes(Path(result.best_path).read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            load_checkpoint(path)


    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        store = random_store(4, 2, n_train=4, seed=1)
        config = toy_run_config(store, epochs=1, eval_every=1, k=1, ce=2, cr=2)
        path = tmp_path / "model.ckpt"
        train(dataclasses.replace(config, checkpoint_path=str(path)), store=store)
        # each prefix, made by cutting the one file shorter (a rewrite costs far more)
        for length in reversed(range(path.stat().st_size)):
            os.truncate(path, length)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        best = load_checkpoint(result.best_path)
        path = tmp_path / "model.ckpt"
        save_checkpoint(best, path)
        before = path.read_bytes()
        # the header and the real tensors are written before this one fails to encode
        arrays = {**best.arrays, "zz": np.array(["nan?"], dtype=object)}
        with pytest.raises(ValueError):
            save_checkpoint(dataclasses.replace(best, arrays=arrays), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class Killed(Exception):
    pass


class TestResume:
    def test_killed_run_resumes_bitwise(self, tmp_path, monkeypatch):
        store = random_store(9, 2, n_train=12, seed=3)
        mc = ModelConfig(9, 2, k=2, ce=3, cr=3, sampling="kvsall", seed=5,
                         input_dropout=0.2, hidden_dropout=0.3)

        def config(name):
            return RunConfig(model=mc, base_lr=1e-2, lr_decay=0.9, batch_size=5, epochs=6,
                             eval_every=2, eval_split="train", seed=5,
                             checkpoint_path=str(tmp_path / f"{name}.ckpt"),
                             log_path=str(tmp_path / f"{name}.log"))

        adams = []

        class RecordingAdam(trainer.Adam):
            def __init__(self):
                super().__init__()
                adams.append(self)

        monkeypatch.setattr(trainer, "Adam", RecordingAdam)
        whole = train(config("whole"), store=store)

        def save_then_die(ckpt, path):
            real_save(ckpt, path)
            if path == trainer.last_path(tmp_path / "cut.ckpt"):
                raise Killed

        real_save = trainer.save_checkpoint
        monkeypatch.setattr(trainer, "save_checkpoint", save_then_die)
        with pytest.raises(Killed):
            train(config("cut"), store=store)  # dies after the epoch-1 last state
        monkeypatch.setattr(trainer, "save_checkpoint", real_save)
        resumed = train(config("cut"), store=store, resume_from=tmp_path / "cut.ckpt")

        assert (tmp_path / "cut.log").read_text() == (tmp_path / "whole.log").read_text()
        assert resumed.metrics_log == whole.metrics_log[1:]
        whole_adam, resumed_adam = adams[0], adams[-1]
        assert resumed_adam.t == whole_adam.t
        for got, want in ((resumed.params.state_arrays(), whole.params.state_arrays()),
                          (resumed_adam.state_arrays(), whole_adam.state_arrays())):
            assert got.keys() == want.keys()
            assert all(got[name].tobytes() == want[name].tobytes() for name in want)

    @staticmethod
    def killable_config(folder, name):
        """A run of four evaluations, at epochs 1, 3, 5 and 7, whose validation MRR improves
        at epochs 1 and 5 only."""
        mc = ModelConfig(9, 2, k=2, ce=3, cr=3, sampling="kvsall", seed=16,
                         input_dropout=0.2, hidden_dropout=0.3)
        return RunConfig(model=mc, base_lr=1e-2, lr_decay=0.9, batch_size=5, epochs=8,
                         eval_every=2, eval_split="valid", seed=16,
                         checkpoint_path=str(folder / f"{name}.ckpt"),
                         log_path=str(folder / f"{name}.log"))

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        """The store, the run's folder, its result and its Adam."""
        store = random_store(9, 2, n_train=12, n_valid=4, seed=3)
        folder = tmp_path_factory.mktemp("uninterrupted")
        adams = []

        class RecordingAdam(trainer.Adam):
            def __init__(self):
                super().__init__()
                adams.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "Adam", RecordingAdam)
            result = train(self.killable_config(folder, "whole"), store=store)
        assert [e["epoch"] for e in result.metrics_log] == [1, 3, 5, 7]
        assert result.best_epoch == 5
        return store, folder, result, adams[0]

    @pytest.mark.parametrize("epoch, after", [*((e, "last state") for e in (1, 3, 5, 7)),
                                              (5, "best model")])
    def test_run_killed_at_any_evaluation_resumes_bitwise(self, tmp_path, monkeypatch,
                                                          uninterrupted, epoch, after):
        store, folder, whole, whole_adam = uninterrupted
        adams = []

        class RecordingAdam(trainer.Adam):
            def __init__(self):
                super().__init__()
                adams.append(self)

        monkeypatch.setattr(trainer, "Adam", RecordingAdam)
        config = self.killable_config(tmp_path, "cut")
        kill_at = (trainer.last_path(config.checkpoint_path) if after == "last state"
                   else config.checkpoint_path)

        def save_then_die(ckpt, path):
            real_save(ckpt, path)
            if (ckpt.epoch, path) == (epoch, kill_at):
                raise Killed

        real_save = trainer.save_checkpoint
        monkeypatch.setattr(trainer, "save_checkpoint", save_then_die)
        with pytest.raises(Killed):
            train(config, store=store)
        monkeypatch.setattr(trainer, "save_checkpoint", real_save)
        resumed = train(config, store=store, resume_from=config.checkpoint_path)

        for name in ("{}.log", "{}.ckpt", "{}.ckpt.last"):
            assert ((tmp_path / name.format("cut")).read_bytes()
                    == (folder / name.format("whole")).read_bytes()), name
        assert (resumed.best_epoch, resumed.best_val_mrr) == (whole.best_epoch, whole.best_val_mrr)
        resumed_adam = adams[-1]
        assert resumed_adam.t == whole_adam.t
        for got, want in ((resumed.params.state_arrays(), whole.params.state_arrays()),
                          (resumed_adam.state_arrays(), whole_adam.state_arrays())):
            assert got.keys() == want.keys()
            assert all(got[name].tobytes() == want[name].tobytes() for name in want)

    def test_resume_trains_in_the_entity_minor_layout(self, tmp_path, monkeypatch):
        store = random_store(9, 2, n_train=12, seed=3)
        config = dataclasses.replace(toy_run_config(store, epochs=2, eval_every=1, seed=5),
                                     checkpoint_path=str(tmp_path / "run.ckpt"))
        train(config, store=store)
        first = load_checkpoint(tmp_path / "run.ckpt")
        loaded, adams = {}, []
        names = ("entity_emb", "adam.m.entity_emb", "adam.v.entity_emb")

        def load(path):
            ckpt = load_checkpoint(path)
            loaded.update((name, ckpt.arrays[name]) for name in names)
            return ckpt

        class RecordingAdam(trainer.Adam):
            def __init__(self):
                super().__init__()
                adams.append(self)

        monkeypatch.setattr(trainer, "load_checkpoint", load)
        monkeypatch.setattr(trainer, "Adam", RecordingAdam)
        resumed = train(dataclasses.replace(config, epochs=4), store=store,
                        resume_from=tmp_path / "run.ckpt")
        assert adams[-1].t > first.adam_t
        # read in the layout a new model trains in, and trained in place: no copy
        trained = (resumed.params.entity_emb.data, adams[-1].m["entity_emb"],
                   adams[-1].v["entity_emb"])
        for name, arr in zip(names, trained):
            assert loaded[name].strides == entity_minor(arr.shape).strides, name
            assert np.shares_memory(arr, loaded[name]), name

    def test_resume_holds_no_second_entity_table(self, tmp_path):
        # the table and its two moments are read in the layout the run trains in; a
        # copy of any of them into that layout would hold a fourth table at its peak
        store = TripleStore.from_ids(40_000, 2, {"train": [[0, 1, 0]], "valid": [[1, 2, 1]],
                                                 "test": [[2, 3, 0]]})
        config = dataclasses.replace(toy_run_config(store, epochs=1, eval_every=1, k=3, ce=10),
                                     checkpoint_path=str(tmp_path / "run.ckpt"))
        table = train(config, store=store).params.entity_emb.data  # 9.6 MB, read in 10 blocks
        tracemalloc.start()
        try:  # no epoch is left to run: the resume reads, checks and returns
            resumed = train(config, store=store, resume_from=config.checkpoint_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * table.nbytes
        np.testing.assert_array_equal(resumed.params.entity_emb.data, table)

    def test_resume_from_a_last_state_alone_names_no_best_file(self, tmp_path):
        store = random_store(9, 2, n_train=12, seed=3)
        config = dataclasses.replace(toy_run_config(store, epochs=2, eval_every=1, seed=5),
                                     checkpoint_path=str(tmp_path / "run.ckpt"))
        whole = train(config, store=store)
        (tmp_path / "run.ckpt").unlink()  # the best model's file is gone; its epoch is known
        result = train(config, store=store, resume_from=tmp_path / "run.ckpt")  # no epoch left
        assert result.best_path is None
        assert (result.best_epoch, result.best_val_mrr) == (whole.best_epoch, whole.best_val_mrr)

    def test_resume_continues_epochs_and_lr(self, tmp_path):
        store = random_store(9, 2, n_train=12, seed=3)
        mc = ModelConfig(9, 2, k=2, ce=3, cr=3, sampling="1vsall", seed=5)
        first = RunConfig(model=mc, base_lr=1e-2, lr_decay=0.9, batch_size=16, epochs=4,
                          eval_every=2, eval_split="train", seed=5,
                          checkpoint_path=str(tmp_path / "run.ckpt"))
        train(first, store=store)
        ckpt = load_checkpoint(tmp_path / "run.ckpt")

        resumed_cfg = RunConfig(model=mc, base_lr=1e-2, lr_decay=0.9, batch_size=16,
                                epochs=8, eval_every=2, eval_split="train", seed=5)
        result = train(resumed_cfg, store=store, resume_from=tmp_path / "run.ckpt")
        epochs = [event["epoch"] for event in result.metrics_log]
        assert min(epochs) > ckpt.epoch
        for event in result.metrics_log:
            assert event["lr"] == 1e-2 * 0.9 ** event["epoch"]

    def test_resumed_best_is_a_copy_of_the_checkpoint(self, tmp_path):
        store = random_store(9, 2, n_train=12, seed=3)
        first = toy_run_config(store, epochs=2, eval_every=1, seed=5)
        train(dataclasses.replace(first, checkpoint_path=str(tmp_path / "run.ckpt")), store=store)
        saved = load_checkpoint(tmp_path / "run.ckpt")
        # no epoch is left to run, so the checkpoint stays the best model
        resumed = dataclasses.replace(first, epochs=saved.epoch + 1)
        result = train(resumed, store=store, resume_from=tmp_path / "run.ckpt")
        assert result.best_path == str(tmp_path / "run.ckpt")
        best = load_checkpoint(result.best_path)
        assert (best.epoch, best.best_val_mrr, best.adam_t) == (saved.epoch, saved.best_val_mrr,
                                                                saved.adam_t)
        assert (result.best_epoch, result.best_val_mrr) == (saved.epoch, saved.best_val_mrr)
        live = result.params.state_arrays()
        for name, arr in saved.arrays.items():
            np.testing.assert_array_equal(best.arrays[name], arr)
            assert name not in live or not np.shares_memory(best.arrays[name], live[name]), name


class TestBestCheckpointInFile:
    """With a checkpoint path, or until a resumed run beats it, the best model lives in the file.

    Without either, it lives nowhere: `train` holds no copy of it.
    """

    @staticmethod
    def config(store, path, **changes):
        # 4,000 entities, so the entity table and its Adam moments are most of the state
        return dataclasses.replace(toy_run_config(store, epochs=2, eval_every=1, seed=4),
                                   checkpoint_path=str(path), **changes)

    @staticmethod
    def train_holding(config, store, resume_from=None):
        """The result of `train`, and the bytes it still holds when it returns."""
        tracemalloc.start()
        try:
            result = train(config, store=store, resume_from=resume_from)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return result, held

    @staticmethod
    def assert_best_is_the_file(result, held, path):
        live = result.params.state_arrays()  # train's Adam, and its moments, are gone
        live_bytes = sum(arr.nbytes for arr in live.values())
        state_bytes = path.stat().st_size  # the model's arrays, as float64
        assert held < live_bytes + state_bytes / 3  # a copy of the state would add all of it
        assert result.best_path == str(path)
        best, saved = load_checkpoint(result.best_path), load_checkpoint(path)
        assert (best.epoch, best.best_val_mrr, best.adam_t) == (saved.epoch, saved.best_val_mrr,
                                                                saved.adam_t)
        assert (result.best_epoch, result.best_val_mrr) == (saved.epoch, saved.best_val_mrr)
        assert best.arrays.keys() == saved.arrays.keys()
        for name, arr in saved.arrays.items():
            assert best.arrays[name].tobytes() == arr.tobytes()
            assert name not in live or not np.shares_memory(best.arrays[name], live[name]), name

    @pytest.fixture(scope="class")
    def store(self):
        return random_store(4000, 2, n_train=32, seed=4)

    def test_arrays_are_read_from_the_file_and_shared_with_nothing(self, tmp_path, store):
        path = tmp_path / "run.ckpt"
        self.assert_best_is_the_file(*self.train_holding(self.config(store, path), store), path)

    def test_resume_leaves_the_best_model_in_the_resumed_file(self, tmp_path, store):
        first = tmp_path / "first.ckpt"
        train(self.config(store, first), store=store)
        # no epoch is left to run, so the resumed file stays the best model
        config = self.config(store, tmp_path / "next.ckpt",
                             epochs=load_checkpoint(first).epoch + 1)
        self.assert_best_is_the_file(*self.train_holding(config, store, first), first)

    def test_resume_without_a_path_leaves_the_best_model_in_the_resumed_file(self, tmp_path,
                                                                             store):
        first = tmp_path / "first.ckpt"
        train(self.config(store, first), store=store)
        # no epoch is left to run, so the resumed file stays the best model
        config = dataclasses.replace(self.config(store, first), checkpoint_path=None,
                                     epochs=load_checkpoint(first).epoch + 1)
        self.assert_best_is_the_file(*self.train_holding(config, store, first), first)

    def test_without_a_path_no_copy_of_the_best_model_is_held(self, tmp_path, store):
        config = dataclasses.replace(self.config(store, tmp_path / "run.ckpt"), checkpoint_path=None)
        result, held = self.train_holding(config, store)
        live_bytes = sum(arr.nbytes for arr in result.params.state_arrays().values())
        # parameters and Adam moments: each trained leaf has two moments of its size
        state_bytes = live_bytes + 2 * sum(t.data.nbytes for _, t in result.params.leaves())
        assert held < live_bytes + state_bytes / 3  # a copy of the state would add all of it
        assert result.best_path is None
        assert list(tmp_path.iterdir()) == []


class TestConfigFromPreset:
    def test_every_field_override_reaches_the_config(self):
        store = random_store(9, 2, n_train=12, seed=3)
        model = ModelConfig(9, 2, k=4, ce=5, cr=6, core_mode="shared", input_dropout=0.3,
                            hidden_dropout=0.2, lambda_ortho=0.5, lambda_unitnorm=0.25, p_norm=2,
                            sampling="1vsall", batchnorm=False, bn_per_partition=True, seed=7)
        want = RunConfig(model, base_lr=0.5, lr_decay=0.75, batch_size=3, epochs=9, data_dir="d",
                         checkpoint_path="c", log_path="l", eval_every=4, eval_split="test",
                         tie_policy="optimistic", seed=7)
        overrides = {}
        for config, skip in ((model, ("num_entities", "num_relations")), (want, ("model",))):
            for field in dataclasses.fields(config):
                if field.name not in skip:
                    value = getattr(config, field.name)
                    # so that only the override can have put it there
                    assert value not in (field.default, trainer.PRESETS["wn18rr"].get(field.name))
                    overrides[field.name] = value
        assert trainer.config_from_preset("wn18rr", store, overrides) == want
