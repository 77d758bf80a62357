"""End-to-end training: epochs, loss assembly, model selection, checkpoints.

Each step builds the tail and head query targets of a shuffled
mini-batch, runs the taped forward/backward pass in training mode, and
applies Adam with the per-epoch decayed learning rate. Validation runs at
the configured cadence. With a checkpoint path, each model that beats the
best validation MRR so far is written there, model only, and every
evaluation writes the run's last state, Adam's moments too, beside it
(`last_path`), which is what a resume reads. The metrics log is a list of
JSON-serializable events, one per evaluation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (SPLIT_FILES, TripleStore, atomic_open, batches, build_filter_index,
                   load_container, load_dataset, meta_counts, save_container)
from .errors import CheckpointError, ConfigError, DivergenceError
from .evaluation import TIE_POLICIES, check_vocabulary, evaluate
from .model import ModelConfig, ModelParams, entity_minor, mean_orthogonality_gap, state_shapes
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
            if type(value := getattr(self, name)) is not int or value < 1:  # as in ModelConfig
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 < self.base_lr < math.inf:  # False for NaN
            raise ConfigError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
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
    best_epoch: int | None = None  # a last state's: the epoch of its run's best model so far
    path: str | None = field(default=None, compare=False)  # the file it was loaded from

    @classmethod
    def capture(cls, config: RunConfig, params: ModelParams, adam: Adam, epoch: int,
                best_val_mrr: float) -> "Checkpoint":
        """The live state as a checkpoint: its arrays are the model's and optimizer's, uncopied.

        The run's file paths are stored as null, so the bytes do not depend on where it wrote.
        """
        arrays = {**params.state_arrays(), **adam.state_arrays()}
        run_config = {**asdict(config), "data_dir": None, "checkpoint_path": None, "log_path": None}
        return cls(run_config, arrays, adam.t, epoch, best_val_mrr)

    def restore(self) -> tuple[RunConfig, ModelParams, Adam | None]:
        """The run config, model and optimizer; CheckpointError if they do not fit together,
        or if a value is unusable (`_check_values`).

        The model and optimizer take over this checkpoint's arrays, uncopied.
        A model-only checkpoint, one with no `adam.` array, restores with the
        optimizer None, not an Adam without moments: such an Adam would step
        from zero moments as if it were the run's, where None cannot be used
        by mistake.
        """
        where = self.path or "checkpoint"
        try:
            config = RunConfig.from_dict(self.run_config)
        except (TypeError, KeyError, ValueError) as exc:
            raise CheckpointError(f"{where}: bad run_config ({type(exc).__name__}: {exc})") from None
        shapes = state_shapes(config.model)
        missing = sorted(shapes.keys() - self.arrays.keys())
        with_moments = any(name.startswith("adam.") for name in self.arrays)
        if not missing:
            params = ModelParams.from_state_arrays(config.model, self.arrays)
            if with_moments:  # a leaf without both moments would resume its Adam state from zero
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
        _check_values(where, self.arrays)
        adam = Adam.from_state_arrays(self.arrays, self.adam_t) if with_moments else None
        return config, params, adam


def last_path(path) -> str:
    """Where a run with checkpoint path `path` writes its last state: `path` + ".last"."""
    return f"{os.fspath(path)}.last"


def save_checkpoint(ckpt: Checkpoint, path):
    """Write `ckpt` as a `data.save_container` of float64 arrays, atomically."""
    meta = {"run_config": ckpt.run_config, "epoch": ckpt.epoch,
            "best_val_mrr": ckpt.best_val_mrr, "adam_t": ckpt.adam_t}
    if ckpt.best_epoch is not None:
        meta["best_epoch"] = ckpt.best_epoch
    save_container(path, CKPT_MAGIC, CKPT_VERSION, meta, ckpt.arrays, "<f8")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at `path`, each tensor read into the layout a run trains in: the
    entity table and its two Adam moments `model.entity_minor`, every other C-ordered."""
    def empty(name, shape, dtype):  # a 0-d table is left to `restore` to reject
        minor = name in ("entity_emb", "adam.m.entity_emb", "adam.v.entity_emb") and shape
        return entity_minor(shape) if minor else np.empty(shape, dtype)

    meta, arrays = load_container(path, CKPT_MAGIC, CKPT_VERSION, "<f8", "checkpoint", empty)
    keys = ("run_config", "adam_t", "epoch", "best_val_mrr")
    if not isinstance(meta, dict) or not all(key in meta for key in keys):
        raise CheckpointError(f"{path}: checkpoint meta is not an object with keys {keys}")
    counts = ("adam_t", "epoch") + (("best_epoch",) if "best_epoch" in meta else ())
    meta_counts(path, "checkpoint", meta, counts)
    if type(mrr := meta["best_val_mrr"]) not in (int, float) or not -math.inf < mrr < math.inf:
        raise CheckpointError(f"{path}: checkpoint meta best_val_mrr is {mrr!r}, not a finite number")
    return Checkpoint(meta["run_config"], arrays, meta["adam_t"], meta["epoch"],
                      meta["best_val_mrr"], meta.get("best_epoch"), path=os.fspath(path))


def _check_values(path, arrays: dict[str, np.ndarray]):
    """CheckpointError naming `path` and the array unless every value is finite, and every
    running variance and Adam second moment non-negative, as scoring and a step need. Each
    array is checked by its least and greatest value, NaN if any value is, so no mask is made."""
    for name, arr in arrays.items():  # none is empty: `restore` checked each shape
        low, high = arr.min(), arr.max()
        signed = not name.startswith("adam.v.") and not name.endswith(".running_var")
        if not ((low > -math.inf if signed else low >= 0.0) and high < math.inf):
            kind = {"adam.m.": "Adam first moment", "adam.v.": "Adam second moment"}.get(name[:7])
            raise CheckpointError(f"{path}: array {name!r} holds a {'' if signed else 'negative or '}"
                                  f"non-finite {kind or 'value'}")


@dataclass
class TrainResult:
    params: ModelParams  # the model after the last epoch
    metrics_log: list[dict]
    best_epoch: int
    best_val_mrr: float
    best_path: str | None  # the checkpoint file that holds the best model, if one does


def _truncate_log(path, epoch: int):
    """Rewrite the metrics log at `path`, atomically, to its events up to epoch `epoch`.

    A run logs its events in epoch order, so the log is cut at the first
    event after `epoch`, or at a last line a kill left unterminated. A line
    that is not an event is kept as it is.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    kept = []
    for line in lines:
        try:
            later = json.loads(line)["epoch"] > epoch
        except (ValueError, TypeError, KeyError):
            later = False
        if later or not line.endswith(b"\n"):
            break
        kept.append(line)
    with atomic_open(path) as fh:
        fh.write(b"".join(kept))


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, epoch)))


def train(config: RunConfig, store: TripleStore | None = None, resume_from=None,
          progress=None) -> TrainResult:
    """Run the full training loop; return the last model, the log and where the best one is.

    `progress`, if given, is called with each metrics-log event (useful for
    CLI output). Resuming from `resume_from` reads its last state,
    `last_path(resume_from)`, or `resume_from` itself when that file does
    not exist, and continues from it: parameters, optimizer state, best
    model so far, epoch numbering and learning-rate schedule. The file read
    must hold Adam's moments and model settings equal to `config.model`; the
    metrics log is cut back to the events up to its epoch (`_truncate_log`).

    With `config.checkpoint_path`, each better model is written there from
    the live arrays, model only, and then every evaluation writes the last
    state to `last_path`. That order is what makes a kill at any instant
    safe: a kill between the two writes leaves the previous last state,
    whose resumed run reaches this epoch again, bitwise, and rewrites the
    same best bytes. No copy of the best model is held in memory: its arrays
    are in the file `best_path` names, which is `resume_from` until an epoch
    of a resumed run beats it, unless that is a last state of a later epoch,
    and otherwise None.
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
    if config.checkpoint_path and os.path.isdir(config.checkpoint_path):
        raise ConfigError(f"{config.checkpoint_path}: the checkpoint path is a directory")

    start_epoch, best_epoch, best_mrr, best_path = 0, None, None, None
    if resume_from is not None:
        last = last_path(resume_from)
        read = last if os.path.exists(last) else os.fspath(resume_from)
        ckpt = load_checkpoint(read)
        saved, params, adam = ckpt.restore()
        if adam is None:
            raise CheckpointError(f"{read}: no Adam moments to resume from; resuming "
                                  f"{resume_from} reads {last}, or {resume_from} if that is absent")
        saved, wanted = asdict(saved.model), asdict(mc)
        differ = [f"{key} is {saved[key]!r} in the checkpoint but {value!r} here"
                  for key, value in wanted.items() if saved[key] != value]
        if differ:
            raise ConfigError(f"{resume_from}: cannot resume with other model settings: "
                              + "; ".join(differ))
        start_epoch = ckpt.epoch + 1
        # the best model so far, until an epoch beats it, stays in the resumed file, unless
        # that is a last state of a later epoch; a checkpoint without a best epoch was a best
        # model when it was written
        best_epoch = ckpt.epoch if ckpt.best_epoch is None else ckpt.best_epoch
        best_mrr = ckpt.best_val_mrr
        held = read == last or ckpt.epoch == best_epoch
        best_path = os.fspath(resume_from) if held and os.path.isfile(resume_from) else None
        if config.log_path and os.path.exists(config.log_path):
            _truncate_log(config.log_path, start_epoch - 1)
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
                adam.step(leaves, backward(tape, leaf_tensors), lr)
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
                    "ortho_gap": mean_orthogonality_gap(params),
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
                improved = best_epoch is None or report.mrr > best_mrr
                if improved:
                    best_epoch, best_mrr = epoch, report.mrr
                    best_path = config.checkpoint_path or None
                if config.checkpoint_path:  # the best model first, then the last state
                    state = Checkpoint.capture(config, params, adam, epoch, best_mrr)
                    if improved:  # the model alone
                        save_checkpoint(replace(state, arrays=params.state_arrays()),
                                        config.checkpoint_path)
                    state.best_epoch = best_epoch
                    save_checkpoint(state, last_path(config.checkpoint_path))
    finally:
        if log_file:
            log_file.close()
    # the last epoch always evaluates, and a resume with no epoch left keeps its file
    return TrainResult(params, metrics_log, best_epoch, best_mrr, best_path)


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
