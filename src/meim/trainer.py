"""End-to-end training: epochs, loss assembly, model selection, checkpoints.

Each step builds the tail and head query targets of a shuffled
mini-batch, runs the taped forward/backward pass in training mode, and
applies Adam with the per-epoch decayed learning rate. Validation runs at the configured cadence
and the checkpoint with the best validation MRR is retained. The metrics
log is a list of JSON-serializable events, one per evaluation.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (SPLIT_FILES, TripleStore, batches, build_filter_index, load_container,
                   load_dataset, meta_counts, save_container)
from .errors import CheckpointError, ConfigError, DivergenceError
from .evaluation import TIE_POLICIES, evaluate
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
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
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
    arrays: dict[str, np.ndarray]
    adam_t: int
    epoch: int
    best_val_mrr: float
    path: str | None = field(default=None, compare=False)  # the file it was loaded from

    @classmethod
    def capture(cls, config: RunConfig, params: ModelParams, adam: Adam, epoch: int,
                best_val_mrr: float) -> "Checkpoint":
        arrays = {k: v.copy() for k, v in {**params.state_arrays(), **adam.state_arrays()}.items()}
        return cls(asdict(config), arrays, adam.t, epoch, best_val_mrr)

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
        if missing:
            raise CheckpointError(f"{where}: missing arrays {missing}")
        for name, arr in self.arrays.items():
            # Adam's moments have the shape of the parameter they belong to
            want = shapes.get(name.removeprefix("adam.m.").removeprefix("adam.v."))
            if want is None or arr.shape != want:
                expected = "no such array" if want is None else f"expected {want}"
                raise CheckpointError(f"{where}: array {name!r} has shape {arr.shape}, {expected}")
        params = ModelParams.from_state_arrays(config.model, self.arrays)
        return config, params, Adam.from_state_arrays(self.arrays, self.adam_t)


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
    best_checkpoint: Checkpoint | None
    metrics_log: list[dict] = field(default_factory=list)
    best_val_mrr: float = float("-inf")


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, epoch)))


def train(config: RunConfig, store: TripleStore | None = None, resume_from=None,
          progress=None) -> TrainResult:
    """Run the full training loop and return the best checkpoint and log.

    `progress`, if given, is called with each metrics-log event (useful for
    CLI output). Resuming restores parameters and optimizer state from a
    checkpoint and continues the epoch numbering and learning-rate schedule;
    the checkpoint's model settings must equal `config.model`.
    """
    if store is None:
        if config.data_dir is None:
            raise ConfigError("train needs either a data_dir or an in-memory store")
        store = load_dataset(config.data_dir)
    mc = config.model
    if mc.num_entities != store.num_entities or mc.num_relations != store.num_relations:
        raise ConfigError(
            f"model sized for {mc.num_entities}x{mc.num_relations} but store has "
            f"{store.num_entities} entities and {store.num_relations} relations"
        )

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
        # arrays that restore took over, so it keeps copies
        best = replace(ckpt, arrays={name: arr.copy() for name, arr in ckpt.arrays.items()})
    else:
        params = ModelParams(mc)
        adam = Adam()

    target_index = build_filter_index(store, ("train",))  # k-vs-all answer sets
    eval_index = build_filter_index(store, ("train", "valid", "test"))
    leaves = params.leaves()
    leaf_tensors = [t for _, t in leaves]

    result = TrainResult(params, best, best_val_mrr=best.best_val_mrr if best else float("-inf"))
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
                result.metrics_log.append(event)
                if log_file:
                    log_file.write(json.dumps(event) + "\n")
                    log_file.flush()
                if progress:
                    progress(event)
                if report.mrr > result.best_val_mrr:
                    result.best_val_mrr = report.mrr
                    result.best_checkpoint = Checkpoint.capture(
                        config, params, adam, epoch, report.mrr
                    )
                    if config.checkpoint_path:
                        save_checkpoint(result.best_checkpoint, config.checkpoint_path)
    finally:
        if log_file:
            log_file.close()
    return result


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
