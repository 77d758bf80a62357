"""End-to-end training: epochs, loss assembly, model selection, checkpoints.

Each step builds the tail and head query targets of a shuffled
mini-batch, runs the taped forward/backward pass in training mode, and
applies Adam with the per-epoch decayed learning rate. Validation runs at the configured cadence
and the checkpoint with the best validation MRR is retained. The metrics
log is a list of JSON-serializable events, one per evaluation.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (SPLIT_FILES, TripleStore, batches, build_filter_index, load_container,
                   load_dataset, meta_counts, save_container)
from .errors import CheckpointError, ConfigError, DivergenceError
from .evaluation import TIE_POLICIES, check_vocabulary, evaluate
from .model import ModelConfig, ModelParams, state_shapes
from .objective import build_targets, total_loss
from .optim import Adam
from .tensor import GradTape, backward

CKPT_MAGIC = b"MEIMCKPT"
CKPT_VERSION = 1

# hyperparameters that reproduce the published per-dataset settings
PRESETS = {
    "wn18rr": dict(k=3, ce=100, cr=100, sampling="kvsall", input_dropout=0.71,
                   hidden_dropout=0.67, lambda_ortho=1e-1, lambda_unitnorm=5e-4,
                   p_norm=3, base_lr=3e-3, lr_decay=0.99775, batch_size=1024, epochs=1000),
    "fb15k-237": dict(k=3, ce=100, cr=100, sampling="1vsall", input_dropout=0.66,
                      hidden_dropout=0.67, lambda_ortho=0.0, lambda_unitnorm=0.0,
                      p_norm=3, base_lr=3e-3, lr_decay=0.99775, batch_size=1024, epochs=1000),
    "yago3-10": dict(k=5, ce=100, cr=100, sampling="1vsall", input_dropout=0.1,
                     hidden_dropout=0.15, lambda_ortho=1e-3, lambda_unitnorm=0.0,
                     p_norm=3, base_lr=3e-3, lr_decay=0.995, batch_size=1024, epochs=1000),
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    base_lr: float = 3e-3
    lr_decay: float = 1.0
    batch_size: int = 1024
    epochs: int = 1000
    data_dir: str | None = None
    checkpoint_path: str | None = None
    log_path: str | None = None
    eval_every: int = 20
    eval_split: str = "valid"
    tie_policy: str = "average"
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.base_lr < math.inf:  # False for NaN
            raise ConfigError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name, allowed in (("eval_split", SPLIT_FILES), ("tie_policy", TIE_POLICIES)):
            if (value := getattr(self, name)) not in allowed:
                raise ConfigError(f"{name} must be one of {tuple(allowed)}, got {value!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        data["model"] = ModelConfig(**data["model"])
        return cls(**data)


@dataclass
class Checkpoint:
    run_config: dict
    arrays: Mapping[str, np.ndarray]
    adam_t: int
    epoch: int
    best_val_mrr: float
    path: str | None = field(default=None, compare=False)  # the file it was loaded from or is in

    @classmethod
    def capture(cls, config: RunConfig, params: ModelParams, adam: Adam, epoch: int,
                best_val_mrr: float) -> "Checkpoint":
        """The live state as a checkpoint: its arrays are the model's and optimizer's, uncopied."""
        arrays = {**params.state_arrays(), **adam.state_arrays()}
        return cls(asdict(config), arrays, adam.t, epoch, best_val_mrr)

    def copy(self) -> "Checkpoint":
        """This checkpoint with its own copy of every array."""
        return replace(self, arrays={name: arr.copy() for name, arr in self.arrays.items()})

    def in_file(self, path) -> "Checkpoint":
        """This checkpoint as saved at `path`: the metadata, with the arrays read on first use."""
        return replace(self, arrays=_ArraysInFile(self, os.fspath(path)), path=os.fspath(path))

    def restore(self) -> tuple[RunConfig, ModelParams, Adam]:
        """The run config, model and optimizer; CheckpointError if they do not fit together.

        The model and optimizer take over this checkpoint's arrays, uncopied.
        """
        where = self.path or "checkpoint"
        try:
            config = RunConfig.from_dict(self.run_config)
        except (TypeError, KeyError, ValueError) as exc:
            raise CheckpointError(f"{where}: bad run_config ({type(exc).__name__}: {exc})") from None
        shapes = state_shapes(config.model)
        missing = sorted(shapes.keys() - self.arrays.keys())
        if not missing:
            params = ModelParams.from_state_arrays(config.model, self.arrays)
            # a leaf without both moments would resume its Adam state from zero
            missing = sorted({f"adam.{m}.{name}" for name, _ in params.leaves() for m in "mv"}
                             - self.arrays.keys())
        if missing:
            raise CheckpointError(f"{where}: missing arrays {missing}")
        for name, arr in self.arrays.items():
            # after one prefix, an Adam moment names the state array whose shape it has
            want = shapes.get(name[len("adam.m."):] if name.startswith(("adam.m.", "adam.v.")) else name)
            if want is None or arr.shape != want:
                expected = "no such array" if want is None else f"expected {want}"
                raise CheckpointError(f"{where}: array {name!r} has shape {arr.shape}, {expected}")
        return config, params, Adam.from_state_arrays(self.arrays, self.adam_t)


class _ArraysInFile(Mapping):
    """The arrays of the checkpoint that `ckpt`'s metadata describes, read from `path` on first use.

    CheckpointError if the file then holds another checkpoint.
    """

    def __init__(self, ckpt: Checkpoint, path: str):
        self._meta = (ckpt.epoch, ckpt.best_val_mrr, ckpt.adam_t)
        self._path = path
        self._arrays = None

    def _load(self) -> dict[str, np.ndarray]:
        if self._arrays is None:
            saved = load_checkpoint(self._path)
            if (saved.epoch, saved.best_val_mrr, saved.adam_t) != self._meta:
                raise CheckpointError(f"{self._path}: no longer holds the checkpoint of epoch "
                                      f"{self._meta[0]}")
            self._arrays = saved.arrays
        return self._arrays

    def __getitem__(self, name: str) -> np.ndarray:
        return self._load()[name]

    def __iter__(self):
        return iter(self._load())

    def __len__(self) -> int:
        return len(self._load())


def save_checkpoint(ckpt: Checkpoint, path):
    """Write `ckpt` as a `data.save_container` of float64 arrays, atomically."""
    meta = {"run_config": ckpt.run_config, "epoch": ckpt.epoch,
            "best_val_mrr": ckpt.best_val_mrr, "adam_t": ckpt.adam_t}
    save_container(path, CKPT_MAGIC, CKPT_VERSION, meta, ckpt.arrays, "<f8")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at `path`, each tensor read straight into its own array."""
    meta, arrays = load_container(path, CKPT_MAGIC, CKPT_VERSION, "<f8", "checkpoint")
    keys = ("run_config", "adam_t", "epoch", "best_val_mrr")
    if not isinstance(meta, dict) or not all(key in meta for key in keys):
        raise CheckpointError(f"{path}: checkpoint meta is not an object with keys {keys}")
    meta_counts(path, "checkpoint", meta, ("adam_t", "epoch"))
    if type(mrr := meta["best_val_mrr"]) not in (int, float):
        raise CheckpointError(f"{path}: checkpoint meta best_val_mrr is {mrr!r}, not a number")
    return Checkpoint(meta["run_config"], arrays, meta["adam_t"], meta["epoch"],
                      meta["best_val_mrr"], path=os.fspath(path))


@dataclass
class TrainResult:
    params: ModelParams
    # with a checkpoint path, the file's metadata; its arrays are read from it on first use
    best_checkpoint: Checkpoint
    metrics_log: list[dict]

    @property
    def best_val_mrr(self) -> float:
        return self.best_checkpoint.best_val_mrr


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, epoch)))


def train(config: RunConfig, store: TripleStore | None = None, resume_from=None,
          progress=None) -> TrainResult:
    """Run the full training loop and return the best checkpoint and log.

    `progress`, if given, is called with each metrics-log event (useful for
    CLI output). Resuming restores parameters and optimizer state from a
    checkpoint and continues the epoch numbering and learning-rate schedule;
    the checkpoint's model settings must equal `config.model`.

    With `config.checkpoint_path`, each better model is written there from
    the live arrays, and the returned best checkpoint reads its arrays back
    from that file when they are first used, so no second copy of the model
    is held; without a path, it holds a copy in memory. A resumed run's best
    checkpoint reads from `resume_from` until an epoch beats it.
    """
    if store is None:
        if config.data_dir is None:
            raise ConfigError("train needs either a data_dir or an in-memory store")
        store = load_dataset(config.data_dir)
    mc = config.model
    check_vocabulary(mc, store)
    for split in ("train", config.eval_split):
        if len(store.splits[split]) == 0:
            raise ConfigError(f"cannot train: split {split!r} is empty")
    if config.checkpoint_path and not os.path.isdir(os.path.dirname(config.checkpoint_path) or "."):
        raise ConfigError(f"{config.checkpoint_path}: the checkpoint's directory does not exist")

    start_epoch, best = 0, None
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        saved, params, adam = ckpt.restore()
        saved, wanted = asdict(saved.model), asdict(mc)
        differ = [f"{key} is {saved[key]!r} in the checkpoint but {value!r} here"
                  for key, value in wanted.items() if saved[key] != value]
        if differ:
            raise ConfigError(f"{resume_from}: cannot resume with other model settings: "
                              + "; ".join(differ))
        start_epoch = ckpt.epoch + 1
        # the best model so far, until an epoch beats it; the run trains in the
        # arrays that restore took over, so the best stays in the file
        best = ckpt.in_file(resume_from)
    else:
        params = ModelParams(mc)
        adam = Adam()

    target_index = build_filter_index(store, ("train",))  # k-vs-all answer sets
    eval_index = build_filter_index(store, ("train", "valid", "test"))
    leaves = params.leaves()
    leaf_tensors = [t for _, t in leaves]

    metrics_log = []
    log_file = open(config.log_path, "a") if config.log_path else None
    last_finite = None
    try:
        for epoch in range(start_epoch, config.epochs):
            lr = config.base_lr * config.lr_decay**epoch
            drop_rng = _epoch_rng(config.seed, epoch, stream=29)
            shuffle_seed = config.seed * 1_000_003 + epoch
            epoch_loss = []
            epoch_ortho = []
            for i, batch in enumerate(batches(store, "train", config.batch_size, shuffle_seed)):
                targets = build_targets(batch, target_index, mc.sampling)
                with GradTape() as tape:
                    loss, parts = total_loss(params, batch, targets, training=True, rng=drop_rng)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(
                        f"non-finite loss {value} at epoch {epoch} batch {i}; "
                        f"last finite loss was {last_finite}"
                    )
                last_finite = value
                # no name holds the gradients, so they are freed before the next step
                adam.step(leaves, backward(tape, loss, leaf_tensors), lr)
                epoch_loss.append(value)
                epoch_ortho.append(parts["ortho"])

            if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                report = evaluate(params, store, config.eval_split, eval_index,
                                  config.tie_policy)
                event = {
                    "epoch": epoch,
                    "lr": lr,
                    "train_loss": float(np.mean(epoch_loss)),
                    "ortho_loss": float(np.mean(epoch_ortho)),
                    "val_mrr": report.mrr,
                    "val_hits1": report.hits[1],
                    "val_hits3": report.hits[3],
                    "val_hits10": report.hits[10],
                }
                metrics_log.append(event)
                if log_file:
                    log_file.write(json.dumps(event) + "\n")
                    log_file.flush()
                if progress:
                    progress(event)
                if best is None or report.mrr > best.best_val_mrr:
                    live = Checkpoint.capture(config, params, adam, epoch, report.mrr)
                    if config.checkpoint_path:
                        save_checkpoint(live, config.checkpoint_path)
                        best = live.in_file(config.checkpoint_path)
                    else:
                        best = live.copy()
    finally:
        if log_file:
            log_file.close()
    # the last epoch always evaluates, and a resume with no epoch left keeps its file
    return TrainResult(params, best, metrics_log)


def config_from_preset(preset: str | None, store: TripleStore, overrides: dict) -> RunConfig:
    """RunConfig from an optional named preset plus explicit flag overrides.

    Overrides with value None are ignored, so only flags the user actually
    passed take precedence over the preset.
    """
    base = dict(PRESETS[preset]) if preset else {}
    merged = {**base, **{k: v for k, v in overrides.items() if v is not None}}
    missing = [f"--{name}" for name in ("k", "ce", "cr") if name not in merged]
    if missing:
        raise ConfigError(f"without --preset, the model size needs {', '.join(missing)}")

    def pick(cls, skip: tuple[str, ...]) -> dict:
        return {f.name: merged[f.name] for f in fields(cls) if f.name in merged and f.name not in skip}

    model = ModelConfig(store.num_entities, store.num_relations,
                        **pick(ModelConfig, ("num_entities", "num_relations")))
    return RunConfig(model=model, **pick(RunConfig, ("model",)))
