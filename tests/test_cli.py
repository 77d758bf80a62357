"""Exit codes, flag handling, and subcommand behavior of the command line."""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import random_store, save_triples

from meim import cli
from meim.cli import cli_main
from meim.data import load_cache, load_dataset, save_cache
from meim.model import ModelConfig, ModelParams
from meim.optim import Adam
from meim.trainer import Checkpoint, RunConfig, last_path, load_checkpoint, save_checkpoint


def replace_meta(path, meta: bytes):
    """Swap the JSON meta block of a checkpoint file for `meta`."""
    blob = path.read_bytes()
    (old_len,) = struct.unpack_from("<I", blob, 10)
    path.write_bytes(blob[:10] + struct.pack("<I", len(meta)) + meta + blob[14 + old_len:])


def _meta_list(ckpt, path):
    save_checkpoint(ckpt, path)
    replace_meta(path, b"[1, 2]")


def _meta_missing_keys(ckpt, path):
    save_checkpoint(ckpt, path)
    replace_meta(path, json.dumps({"run_config": ckpt.run_config, "epoch": 0}).encode())


def _meta_with(**changes):
    """A corruption that sets `changes` in an otherwise valid checkpoint meta."""
    def corrupt(ckpt, path):
        save_checkpoint(ckpt, path)
        meta = {"run_config": ckpt.run_config, "epoch": ckpt.epoch,
                "best_val_mrr": ckpt.best_val_mrr, "adam_t": ckpt.adam_t}
        replace_meta(path, json.dumps({**meta, **changes}).encode())
    return corrupt


def _run_config_with(model=(), **changes):
    """A corruption that sets `changes` in the run config and `model` in its model settings."""
    def corrupt(ckpt, path):
        ckpt.run_config.update(changes)
        ckpt.run_config["model"].update(model)
        save_checkpoint(ckpt, path)
    return corrupt


def _unknown_model_key(ckpt, path):
    ckpt.run_config["model"]["bogus"] = 1
    save_checkpoint(ckpt, path)


def _missing_array(ckpt, path):
    del ckpt.arrays["core"]
    save_checkpoint(ckpt, path)


def _wrong_shape(ckpt, path):
    ckpt.arrays["adam.m.entity_emb"] = np.zeros((3, 1, 2))
    save_checkpoint(ckpt, path)


def _scalar(name):
    """A corruption that makes array `name` 0-d, with no first axis to lay out."""
    def corrupt(ckpt, path):
        ckpt.arrays[name] = np.zeros(())
        save_checkpoint(ckpt, path)
    return corrupt


def _missing_moment(ckpt, path):
    del ckpt.arrays["adam.v.entity_emb"]
    save_checkpoint(ckpt, path)


def _nested_moment(ckpt, path):
    ckpt.arrays["adam.m.adam.v.entity_emb"] = ckpt.arrays["adam.v.entity_emb"]
    save_checkpoint(ckpt, path)


def _corrupt_header(ckpt, path):
    save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[14] = ord("]")  # the meta's opening brace
    path.write_bytes(bytes(blob))


def _toy_checkpoint(num_entities=10, num_relations=2) -> Checkpoint:
    config = RunConfig(ModelConfig(num_entities, num_relations, k=1, ce=2, cr=2))
    params = ModelParams(config.model)
    adam = Adam.from_state_arrays(  # both moments of every state array, running statistics too
        {f"adam.{m}.{k}": v for m in "mv" for k, v in params.state_arrays().items()}, 1)
    return Checkpoint.capture(config, params, adam, 0, 0.0)


def _cache_with(path, row):
    """A triple cache over 5 entities and 2 relations whose test split ends in `row`."""
    store = random_store(5, 2, n_train=6, n_valid=2, n_test=2, seed=1)
    store.splits["test"] = np.vstack([store.splits["test"], row]).astype(np.int32)
    save_cache(store, path)


# a checkpoint meta value of the wrong type, and the start of the one-line error it gives
MISTYPED_META = {
    "epoch-str": (_meta_with(epoch="x"), "checkpoint meta epoch is "),
    "epoch-negative": (_meta_with(epoch=-1), "checkpoint meta epoch is "),
    "adam_t-float": (_meta_with(adam_t=1.5), "checkpoint meta adam_t is "),
    "adam_t-bool": (_meta_with(adam_t=True), "checkpoint meta adam_t is "),
    # a last state's; a best-model file has none
    "best_epoch-str": (_meta_with(best_epoch="5"), "checkpoint meta best_epoch is "),
    "best_epoch-negative": (_meta_with(best_epoch=-1), "checkpoint meta best_epoch is "),
    "mrr-str": (_meta_with(best_val_mrr="high"), "checkpoint meta best_val_mrr is "),
    "mrr-null": (_meta_with(best_val_mrr=None), "checkpoint meta best_val_mrr is "),
    # a NaN best would never be beaten, so no later epoch would be saved
    "mrr-nan": (_meta_with(best_val_mrr=float("nan")), "checkpoint meta best_val_mrr is "),
    "mrr-inf": (_meta_with(best_val_mrr=float("inf")), "checkpoint meta best_val_mrr is "),
    # a float count would pass `< 1` and fail later in a reshape; a bool would pass as 1
    "k-float": (_run_config_with(model={"k": 1.0}),
                "bad run_config (ConfigError: k must be a positive integer, got 1.0)"),
    "ce-float": (_run_config_with(model={"ce": 2.0}),
                 "bad run_config (ConfigError: ce must be a positive integer, got 2.0)"),
    "entities-float": (_run_config_with(model={"num_entities": 10.0}),
                       "bad run_config (ConfigError: num_entities must be a positive integer, "
                       "got 10.0)"),
    "k-bool": (_run_config_with(model={"k": True}),
               "bad run_config (ConfigError: k must be a positive integer, got True)"),
    "model-seed-float": (_run_config_with(model={"seed": 0.0}),
                         "bad run_config (ConfigError: seed must be a non-negative integer, "
                         "got 0.0)"),
    "epochs-float": (_run_config_with(epochs=2.0),
                     "bad run_config (ConfigError: epochs must be an integer >= 1, got 2.0)"),
    "seed-bool": (_run_config_with(seed=False),
                  "bad run_config (ConfigError: seed must be a non-negative integer, got False)"),
}


@pytest.fixture
def dataset_dir(tmp_path):
    store = random_store(10, 2, n_train=20, n_valid=6, n_test=6, seed=4)
    save_triples(store, tmp_path / "kg")
    return tmp_path / "kg"


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_main(["param-count", "--k", "3", "--ce", "2", "--cr", "2", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_runtime_failure_is_exit_one(self, capsys):
        assert cli_main(["preprocess", "--data-dir", "/nonexistent", "--out", "x.bin"]) == 1
        assert "error" in capsys.readouterr().err

    def test_truncated_cache_is_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"MEIMTRPL\x01")
        assert cli_main(["train", "--data-dir", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_model_size_is_exit_one(self, capsys, dataset_dir):
        assert cli_main(["train", "--data-dir", str(dataset_dir), "--k", "2"]) == 1
        assert capsys.readouterr().err == "error: without --preset, the model size needs --ce, --cr\n"

    @pytest.mark.parametrize("command", ["train", "grad-check"])
    def test_negative_seed_is_exit_one(self, capsys, dataset_dir, command):
        model = ["--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2"]
        rc = cli_main([command, *(model if command == "train" else []), "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 1 and err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("flag, value, expected", [
        ("--lambda-ortho", "nan", "lambda_ortho must be finite and non-negative, got nan"),
        ("--lambda-unitnorm", "nan", "lambda_unitnorm must be finite and non-negative, got nan"),
        ("--lr", "nan", "base_lr must be finite and positive, got nan"),
        ("--lr", "inf", "base_lr must be finite and positive, got inf"),
    ], ids=["lambda-ortho-nan", "lambda-unitnorm-nan", "lr-nan", "lr-inf"])
    def test_non_finite_hyperparameter_is_exit_one_before_the_first_step(self, capsys, dataset_dir,
                                                                         tmp_path, flag, value,
                                                                         expected):
        rc = cli_main(["train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2",
                       "--epochs", "3", "--eval-every", "2", "--log", str(tmp_path / "m.log"),
                       flag, value])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and captured.err == f"error: {expected}\n"
        assert not (tmp_path / "m.log").exists()

    @pytest.mark.parametrize("fault, expected", [
        ("train.txt", "error: cannot train: split 'train' is empty"),
        ("valid.txt", "error: cannot train: split 'valid' is empty"),
        ("directory", "checkpoint's directory does not exist"),
    ], ids=["empty-train", "empty-eval-split", "missing-checkpoint-directory"])
    def test_unusable_run_is_exit_one_before_the_first_step(self, capsys, dataset_dir, tmp_path,
                                                            fault, expected):
        out = tmp_path / ("gone" if fault == "directory" else "out")
        if fault.endswith(".txt"):
            (dataset_dir / fault).write_text("")
            out.mkdir()
        rc = cli_main(["train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2",
                       "--cr", "2", "--epochs", "3", "--eval-every", "2",
                       "--checkpoint", str(out / "m.ckpt"), "--log", str(tmp_path / "m.log")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error:") and expected in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not (out / "m.ckpt").exists() and not (tmp_path / "m.log").exists()

    def test_checkpoint_path_that_is_a_directory_is_exit_one_before_the_first_step(
            self, capsys, dataset_dir, tmp_path):
        folder = tmp_path / "ckdir"
        folder.mkdir()
        rc = cli_main(["train", "--data-dir", str(dataset_dir), "--k", "2", "--ce", "3",
                       "--cr", "3", "--epochs", "2", "--eval-every", "1",
                       "--checkpoint", str(folder), "--log", str(tmp_path / "m.log")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""  # no metrics event
        assert captured.err == f"error: {folder}: the checkpoint path is a directory\n"
        assert list(folder.iterdir()) == [] and not (tmp_path / "m.log").exists()

    def test_non_utf8_dataset_is_exit_one(self, capsys, dataset_dir):
        train = dataset_dir / "train.txt"
        train.write_bytes(train.read_bytes() + b"a\tr\t\xffb\n")  # line 21
        assert cli_main(["train", "--data-dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train.txt:21:") and "UTF-8" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("corrupt, expected", [
        (_meta_list, "meta"),
        (_meta_missing_keys, "adam_t"),
        (_unknown_model_key, "bogus"),
        (_missing_array, "missing arrays ['core']"),
        (_wrong_shape, "adam.m.entity_emb"),
        (_scalar("entity_emb"), "array 'entity_emb' has shape (), expected (10, 1, 2)"),
        (_scalar("adam.m.entity_emb"), "array 'adam.m.entity_emb' has shape (), expected (10, 1, 2)"),
        (_missing_moment, "missing arrays ['adam.v.entity_emb']"),
        (_nested_moment, "array 'adam.m.adam.v.entity_emb' has shape (10, 1, 2), no such array"),
        (_corrupt_header, "corrupt checkpoint header"),
        (None, "Is a directory"),
    ], ids=["meta-list", "meta-missing-keys", "unknown-model-key", "missing-array",
            "wrong-shape", "scalar-table", "scalar-moment", "missing-moment", "nested-moment",
            "corrupt-header", "directory"])
    def test_malformed_checkpoint_is_exit_one(self, capsys, dataset_dir, tmp_path, corrupt,
                                              expected):
        path = tmp_path / "bad.ckpt"
        if corrupt is None:
            path.mkdir()
        else:
            corrupt(_toy_checkpoint(), path)
        assert cli_main(["eval", "--checkpoint", str(path), "--data-dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and expected in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("corrupt, expected", MISTYPED_META.values(), ids=MISTYPED_META.keys())
    def test_mistyped_checkpoint_meta_is_exit_one_on_resume(self, capsys, dataset_dir, tmp_path,
                                                           corrupt, expected):
        path = tmp_path / "bad.ckpt"
        corrupt(_toy_checkpoint(), path)
        assert cli_main(["train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2",
                         "--cr", "2", "--epochs", "2", "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {expected}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("corrupt, expected", MISTYPED_META.values(), ids=MISTYPED_META.keys())
    def test_mistyped_checkpoint_meta_is_exit_one_on_eval(self, capsys, dataset_dir, tmp_path,
                                                         corrupt, expected):
        path = tmp_path / "bad.ckpt"
        corrupt(_toy_checkpoint(), path)
        assert cli_main(["eval", "--checkpoint", str(path), "--data-dir", str(dataset_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {expected}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("row, expected", [
        ([0, 99, 1], "test triple 2 has tail id 99 outside [0, 5)"),
        ([-1, 0, 1], "test triple 2 has head id -1 outside [0, 5)"),
    ], ids=["too-large", "negative"])
    def test_cache_id_outside_vocabulary_is_exit_one(self, capsys, tmp_path, command, row,
                                                     expected):
        cache = tmp_path / "c.bin"
        _cache_with(cache, row)
        argv = ["--data-dir", str(cache)]
        if command == "train":
            argv = ["train", *argv, "--k", "1", "--ce", "2", "--cr", "2", "--epochs", "1"]
        else:
            save_checkpoint(_toy_checkpoint(5, 2), tmp_path / "m.ckpt")
            argv = ["eval", *argv, "--checkpoint", str(tmp_path / "m.ckpt")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cache) in err and expected in err
        assert len(err.strip().splitlines()) == 1

    def test_version_one_cache_is_exit_one(self, capsys, tmp_path):
        # the header of the first cache format: counts instead of a JSON meta block
        old = tmp_path / "old.bin"
        rows = np.array([[0, 1, 0], [1, 2, 1]], dtype="<i4")
        old.write_bytes(b"MEIMTRPL" + struct.pack("<HII", 1, 3, 2) + struct.pack("<III", 2, 0, 0)
                        + rows.tobytes())
        assert cli_main(["train", "--data-dir", str(old), "--k", "1", "--ce", "2", "--cr", "2",
                         "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {old}: unsupported triple cache version 1\n"


class TestParamCount:
    @pytest.mark.parametrize(
        "entities,relations,k,c,expected",
        [(14541, 237, 3, 100, "7433400"), (40943, 11, 3, 100, "15286200"),
         (123182, 37, 5, 100, "66609500")],
    )
    def test_benchmark_vocab_sizes(self, capsys, entities, relations, k, c, expected):
        rc = cli_main([
            "param-count", "--num-entities", str(entities), "--num-relations", str(relations),
            "--k", str(k), "--ce", str(c), "--cr", str(c),
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == expected

    def test_data_dir_supplies_vocab(self, capsys, dataset_dir):
        rc = cli_main(["param-count", "--data-dir", str(dataset_dir),
                       "--k", "2", "--ce", "3", "--cr", "3"])
        assert rc == 0
        # 10*2*3 + 2*2*3 + 2*3*3*3 = 126
        assert capsys.readouterr().out.strip() == "126"

    def test_cache_file_supplies_vocab(self, capsys, dataset_dir, tmp_path):
        cache = tmp_path / "kg.bin"
        assert cli_main(["preprocess", "--data-dir", str(dataset_dir), "--out", str(cache)]) == 0
        capsys.readouterr()
        rc = cli_main(["param-count", "--data-dir", str(cache), "--k", "2", "--ce", "3", "--cr", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "126"

    def test_missing_vocab_source(self, capsys):
        assert cli_main(["param-count", "--k", "2", "--ce", "3", "--cr", "3"]) == 1

    @pytest.mark.parametrize("sizes", [["--num-entities", "14541", "--num-relations", "237"],
                                       ["--num-entities", "14541"], ["--num-relations", "237"]],
                             ids=["both-sizes", "entities", "relations"])
    def test_data_dir_and_sizes_conflict(self, capsys, dataset_dir, sizes):
        # the directory's vocabulary used to win silently over the explicit sizes
        rc = cli_main(["param-count", "--data-dir", str(dataset_dir), *sizes,
                       "--k", "2", "--ce", "3", "--cr", "3"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: param-count takes --data-dir or "
                                     "--num-entities/--num-relations, not both\n")

    @pytest.mark.parametrize("entities,relations", [("0", "5"), ("5", "0"), ("-3", "5")])
    def test_non_positive_vocab_size(self, capsys, entities, relations):
        rc = cli_main(["param-count", "--num-entities", entities, "--num-relations", relations,
                       "--k", "2", "--ce", "3", "--cr", "3"])
        assert rc == 1
        assert "must be a positive integer" in capsys.readouterr().err


class TestPreprocess:
    def test_builds_cache(self, capsys, dataset_dir, tmp_path):
        out = tmp_path / "triples.bin"
        assert cli_main(["preprocess", "--data-dir", str(dataset_dir), "--out", str(out)]) == 0
        cached = load_cache(out)
        assert cached.num_entities == 10
        assert len(cached.splits["train"]) == 20

    def test_cache_feeds_train_and_eval(self, dataset_dir, tmp_path, capsys):
        cache = tmp_path / "triples.bin"
        ckpt = tmp_path / "c.ckpt"
        assert cli_main(["preprocess", "--data-dir", str(dataset_dir), "--out", str(cache)]) == 0
        rc = cli_main([
            "train", "--data-dir", str(cache), "--k", "1", "--ce", "2", "--cr", "2",
            "--epochs", "2", "--batch-size", "16", "--eval-every", "2",
            "--checkpoint", str(ckpt),
        ])
        assert rc == 0
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(cache)]) == 0
        assert "overall" in capsys.readouterr().out


class TestTrainEval:
    def test_train_then_eval(self, capsys, dataset_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "m.log.jsonl"
        rc = cli_main([
            "train", "--data-dir", str(dataset_dir), "--k", "2", "--ce", "3", "--cr", "3",
            "--sampling", "kvsall", "--lambda-ortho", "0.1", "--lambda-unitnorm", "5e-4",
            "--lr", "0.01", "--batch-size", "8", "--epochs", "6", "--eval-every", "3",
            "--checkpoint", str(ckpt), "--log", str(log), "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert ckpt.exists()
        assert "best validation MRR" in out
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in events] == [2, 5]
        for key in ("epoch", "lr", "train_loss", "ortho_loss", "val_mrr", "val_hits10"):
            assert key in events[0]

        rc = cli_main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(dataset_dir),
                       "--split", "test", "--report", str(tmp_path / "report.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall" in out
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("mrr", "hits1", "hits3", "hits10", "per_relation", "per_direction",
                    "triple_count"):
            assert key in report
        assert report["triple_count"] == 6

    def test_eval_rejects_mismatched_dataset(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        rc = cli_main([
            "train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2",
            "--epochs", "1", "--batch-size", "16", "--eval-split", "train",
            "--checkpoint", str(ckpt),
        ])
        assert rc == 0
        other = random_store(5, 1, n_train=6, seed=9)
        save_triples(other, tmp_path / "other_kg")
        rc = cli_main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(tmp_path / "other_kg")])
        assert rc == 1
        assert "trained on" in capsys.readouterr().err

    @pytest.mark.parametrize("model_flags, other_entities, expected", [
        (["--k", "2", "--ce", "3"], None, "k is 1 in the checkpoint but 2 here; "
                                         "ce is 2 in the checkpoint but 3 here"),
        (["--k", "1", "--ce", "2"], 6, "num_entities is {saved} in the checkpoint but {here} here"),
        (["--k", "1", "--ce", "2"], 30, "num_entities is {saved} in the checkpoint but {here} here"),
    ], ids=["other-k-ce", "fewer-entities", "more-entities"])
    def test_resume_with_other_model_settings_is_exit_one(self, capsys, dataset_dir, tmp_path,
                                                          model_flags, other_entities, expected):
        first, resumed = tmp_path / "a.ckpt", tmp_path / "c.ckpt"
        assert cli_main(["train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2",
                         "--cr", "2", "--epochs", "1", "--checkpoint", str(first)]) == 0
        data = dataset_dir
        if other_entities is not None:
            data = tmp_path / "other_kg"
            save_triples(random_store(other_entities, 2, n_train=40, n_valid=6, n_test=6, seed=5), data)
        expected = expected.format(saved=load_dataset(dataset_dir).num_entities,
                                   here=load_dataset(data).num_entities)
        capsys.readouterr()
        rc = cli_main(["train", "--data-dir", str(data), *model_flags, "--cr", "2", "--epochs", "2",
                       "--resume", str(first), "--checkpoint", str(resumed)])
        assert rc == 1 and not resumed.exists()
        assert capsys.readouterr().err == (
            f"error: {first}: cannot resume with other model settings: {expected}\n")

    @pytest.mark.parametrize("name, at, value, expected", [
        ("adam.v.entity_emb", (3, 0, 1), -1e-9, "a negative or non-finite Adam second moment"),
        ("adam.v.entity_emb", (0, 0, 0), math.nan, "a negative or non-finite Adam second moment"),
        ("adam.m.entity_emb", (9, 0, 1), math.inf, "a non-finite Adam first moment"),
        ("adam.v.core", (0, 1, 0, 1), -1.0, "a negative or non-finite Adam second moment"),
    ], ids=["negative-v", "nan-v", "inf-m", "negative-core-v"])
    def test_resume_with_unusable_adam_moments_is_exit_one(self, capsys, dataset_dir, tmp_path,
                                                           name, at, value, expected):
        first, resumed = tmp_path / "a.ckpt", tmp_path / "c.ckpt"
        model = ["--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2"]
        assert cli_main(["train", *model, "--epochs", "1", "--checkpoint", str(first)]) == 0
        last = last_path(first)  # the file a resume reads
        ckpt = load_checkpoint(last)
        ckpt.arrays[name][at] = value
        save_checkpoint(ckpt, last)
        capsys.readouterr()
        rc = cli_main(["train", *model, "--epochs", "3", "--resume", str(first),
                       "--checkpoint", str(resumed)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not resumed.exists()
        assert captured.err == f"error: {last}: array {name!r} holds {expected}\n"

    @pytest.mark.parametrize("last_state", ["absent", "model-only"])
    def test_resume_without_adam_moments_is_exit_one(self, capsys, dataset_dir, tmp_path,
                                                     last_state):
        first, resumed = tmp_path / "a.ckpt", tmp_path / "c.ckpt"
        model = ["--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2"]
        assert cli_main(["train", *model, "--epochs", "1", "--checkpoint", str(first)]) == 0
        last = Path(last_path(first))
        if last_state == "absent":
            last.unlink()
        else:
            last.write_bytes(first.read_bytes())  # the best model: no Adam moments
        capsys.readouterr()
        rc = cli_main(["train", *model, "--epochs", "3", "--resume", str(first),
                       "--checkpoint", str(resumed)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not resumed.exists()
        read = first if last_state == "absent" else last
        assert captured.err == (f"error: {read}: no Adam moments to resume from; resuming {first} "
                                f"reads {last}, or {first} if that is absent\n")

    def test_every_truncated_last_state_is_exit_one(self, capsys, dataset_dir, tmp_path,
                                                    monkeypatch):
        first = tmp_path / "a.ckpt"
        model = ["--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2"]
        assert cli_main(["train", *model, "--epochs", "1", "--checkpoint", str(first)]) == 0
        last = last_path(first)
        parser = cli.build_parser()  # built once: building it is most of a run's time
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        # each prefix, made by cutting the one file shorter
        for length in reversed(range(os.path.getsize(last))):
            os.truncate(last, length)
            capsys.readouterr()
            rc = cli_main(["train", *model, "--epochs", "3", "--resume", str(first)])
            err = capsys.readouterr().err
            assert rc == 1 and err.startswith(f"error: {last}: ") and err.count("\n") == 1, err

    def test_eval_reads_the_last_state_as_the_best_model(self, capsys, dataset_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        # one epoch: the best model and the last state hold the same model
        assert cli_main(["train", "--data-dir", str(dataset_dir), "--k", "2", "--ce", "3",
                         "--cr", "3", "--epochs", "1", "--checkpoint", str(ckpt)]) == 0
        outputs = []
        for path in (ckpt, last_path(ckpt)):
            capsys.readouterr()
            report = tmp_path / "report.json"
            assert cli_main(["eval", "--checkpoint", str(path), "--data-dir", str(dataset_dir),
                             "--report", str(report)]) == 0
            outputs.append((capsys.readouterr().out, report.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("more_epochs", [2, 0], ids=["no-better-epoch", "no-epoch-left"])
    def test_summary_after_resume_names_the_checkpoint_epoch(self, capsys, dataset_dir, tmp_path,
                                                             more_epochs):
        # without batch norm, a learning rate of 1e-300 leaves every parameter
        # unchanged, so the resumed epochs tie the checkpoint's MRR and never replace it
        first = tmp_path / "a.ckpt"
        model = ["--data-dir", str(dataset_dir), "--k", "1", "--ce", "2", "--cr", "2",
                 "--no-batchnorm", "--eval-every", "1"]
        assert cli_main(["train", *model, "--epochs", "2", "--checkpoint", str(first)]) == 0
        ckpt = load_checkpoint(first)
        resume_epoch = load_checkpoint(last_path(first)).epoch  # the resume point: the last state
        capsys.readouterr()
        rc = cli_main(["train", *model, "--epochs", str(resume_epoch + 1 + more_epochs),
                       "--lr", "1e-300", "--resume", str(first)])
        *events, summary = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [json.loads(e)["val_mrr"] for e in events] == [ckpt.best_val_mrr] * more_epochs
        # no resumed epoch beat the checkpoint, so the best model is still in the resumed file
        assert summary == (f"best validation MRR {ckpt.best_val_mrr:.4f} (epoch {ckpt.epoch}), "
                           f"model in {first}")

    def test_summary_with_a_checkpoint_names_the_best_epoch(self, capsys, dataset_dir, tmp_path,
                                                            monkeypatch):
        def no_read(path):
            raise AssertionError(f"the summary read {path}")

        ckpt = tmp_path / "m.ckpt"
        # the best model's arrays stay in the file: the summary reads only its metadata
        monkeypatch.setattr("meim.trainer.load_checkpoint", no_read)
        rc = cli_main(["train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2",
                       "--cr", "2", "--epochs", "4", "--eval-every", "1", "--checkpoint", str(ckpt)])
        *events, summary = capsys.readouterr().out.splitlines()
        assert rc == 0
        mrrs = [json.loads(e)["val_mrr"] for e in events]
        saved = load_checkpoint(ckpt)
        assert saved.epoch == mrrs.index(max(mrrs))  # the first epoch to reach the best MRR
        assert summary == (f"best validation MRR {saved.best_val_mrr:.4f} (epoch {saved.epoch}), "
                           f"model in {ckpt}")

    def test_summary_without_a_checkpoint_names_no_file(self, capsys, dataset_dir):
        rc = cli_main(["train", "--data-dir", str(dataset_dir), "--k", "1", "--ce", "2",
                       "--cr", "2", "--epochs", "2", "--eval-every", "1"])
        *events, summary = capsys.readouterr().out.splitlines()
        assert rc == 0
        best = max(json.loads(e)["val_mrr"] for e in events)
        assert summary.startswith(f"best validation MRR {best:.4f} (epoch ")
        assert summary.endswith(")")

    def test_wn18rr_regularizer_flags_accepted(self, dataset_dir):
        rc = cli_main([
            "train", "--data-dir", str(dataset_dir), "--k", "2", "--ce", "2", "--cr", "2",
            "--lambda-ortho", "0.1", "--lambda-unitnorm", "5e-4", "--epochs", "1",
            "--batch-size", "16", "--eval-split", "train",
        ])
        assert rc == 0

    def test_preset_with_overrides(self, dataset_dir, capsys):
        # preset sizes are far too large for the toy vocabulary; overriding
        # the partition sizes and epochs must keep everything else
        rc = cli_main([
            "train", "--data-dir", str(dataset_dir), "--preset", "wn18rr",
            "--ce", "2", "--cr", "2", "--epochs", "1", "--batch-size", "8",
            "--input-dropout", "0.1", "--hidden-dropout", "0.1", "--eval-split", "train",
        ])
        assert rc == 0


class TestGradCheck:
    def test_audit_passes(self, capsys):
        assert cli_main(["grad-check", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_zero_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GRAD_TOLERANCE", 0.0)
        assert cli_main(["grad-check"]) == 1
        assert "gradient audit FAILED" in capsys.readouterr().out
