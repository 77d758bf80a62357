"""Training loop behavior, checkpoint format, resume semantics."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from conftest import random_store

from meim.data import TripleStore, save_cache
from meim.errors import CheckpointError, ConfigError, DivergenceError
from meim.model import ModelConfig
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
def memorization_result():
    store = random_store(8, 2, n_train=10, seed=1)
    config = toy_run_config(store, epochs=300, eval_every=25, seed=2)
    return store, config, train(config, store=store)


class TestTraining:
    def test_toy_graph_is_memorized(self, memorization_result):
        _, _, result = memorization_result
        assert result.best_val_mrr == 1.0

    def test_model_selection_matches_log(self, memorization_result):
        _, _, result = memorization_result
        logged = max(event["val_mrr"] for event in result.metrics_log)
        assert result.best_val_mrr == logged
        assert result.best_checkpoint.best_val_mrr == logged

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

    def test_negative_model_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
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

    def test_mismatched_store_rejected(self):
        store = random_store(8, 2, n_train=10, seed=1)
        other = random_store(5, 2, n_train=6, seed=1)
        config = toy_run_config(store)
        with pytest.raises(ConfigError, match="store"):
            train(config, store=other)

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
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.best_checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == result.best_checkpoint.epoch
        assert loaded.best_val_mrr == result.best_checkpoint.best_val_mrr
        assert loaded.adam_t == result.best_checkpoint.adam_t
        assert set(loaded.arrays) == set(result.best_checkpoint.arrays)
        for name, arr in result.best_checkpoint.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[name], arr)

    def test_restore_rebuilds_identical_params(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.best_checkpoint, path)
        _, params, adam = load_checkpoint(path).restore()
        for name, arr in params.state_arrays().items():
            np.testing.assert_array_equal(arr, result.best_checkpoint.arrays[name])
        assert adam.t == result.best_checkpoint.adam_t

    def test_restore_takes_over_the_loaded_arrays(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.best_checkpoint, path)
        ckpt = load_checkpoint(path)
        _, params, adam = ckpt.restore()
        restored = {**params.state_arrays(), **adam.state_arrays()}
        assert restored.keys() == ckpt.arrays.keys()
        assert any(name.startswith("adam.v.") for name in restored)
        for name, arr in restored.items():
            assert np.shares_memory(arr, ckpt.arrays[name]), name

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

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.best_checkpoint, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            load_checkpoint(path)


    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        store = random_store(4, 2, n_train=4, seed=1)
        config = toy_run_config(store, epochs=1, eval_every=1, k=1, ce=2, cr=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(train(config, store=store).best_checkpoint, path)
        blob = path.read_bytes()
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, memorization_result):
        _, _, result = memorization_result
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.best_checkpoint, path)
        before = path.read_bytes()
        # the header and the real tensors are written before this one fails to encode
        arrays = {**result.best_checkpoint.arrays, "zz": np.array(["nan?"], dtype=object)}
        with pytest.raises(ValueError):
            save_checkpoint(dataclasses.replace(result.best_checkpoint, arrays=arrays), path)
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
            raise Killed

        real_save = trainer.save_checkpoint
        monkeypatch.setattr(trainer, "save_checkpoint", save_then_die)
        with pytest.raises(Killed):
            train(config("cut"), store=store)  # dies after the epoch-1 checkpoint
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
        best = result.best_checkpoint
        assert (best.epoch, best.best_val_mrr, best.adam_t) == (saved.epoch, saved.best_val_mrr,
                                                                saved.adam_t)
        assert result.best_val_mrr == saved.best_val_mrr
        live = result.params.state_arrays()
        for name, arr in saved.arrays.items():
            np.testing.assert_array_equal(best.arrays[name], arr)
            assert name not in live or not np.shares_memory(best.arrays[name], live[name]), name


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
