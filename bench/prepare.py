"""Build one workload's inputs in a process of its own.

    python3 bench/prepare.py <kind> <seed> <out-dir> <shape-json> \
        [meim train flags for the eval checkpoint ...]

<shape-json> holds the fields of a `synth.GraphShape`. Writes a seeded
synthetic graph of that shape as text files in
<out-dir>/data. For the "eval" kind it then builds what `meim eval` reads:
the binary triple cache <out-dir>/data.bin (via `meim preprocess`) and a
checkpoint <out-dir>/model.ckpt (via one epoch of `meim train` on a graph
with the same vocabulary that holds only the coverage triples). The text
files are removed afterwards. <out-dir>/graph.json describes the graph.

Running this apart from the measured process keeps its memory out of the
measured peak resident set.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import synth


def _cli(argv: list[str]):
    from meim.cli import cli_main

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"meim {' '.join(argv)} exited with {code}")


def prepare(kind: str, seed: int, out: Path, shape: synth.GraphShape, train_flags: list[str]):
    splits = synth.generate(shape, seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "graph.json").write_text(json.dumps(synth.describe(splits, shape)))
    synth.write_dataset(splits, out / "data")
    if kind == "train":
        return
    _cli(["preprocess", "--data-dir", str(out / "data"), "--out", str(out / "data.bin")])
    cover = synth.coverage(shape, seed)
    small = {"train": cover, "valid": cover[:64], "test": cover[:64]}
    synth.write_dataset(small, out / "ckpt-data")
    _cli(["train", "--data-dir", str(out / "ckpt-data"), *train_flags, "--epochs", "1",
          "--seed", str(seed), "--checkpoint", str(out / "model.ckpt")])
    shutil.rmtree(out / "data")
    shutil.rmtree(out / "ckpt-data")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    kind, seed, out, shape, *flags = sys.argv[1:]
    fields = json.loads(shape)
    fields["relation_counts"] = tuple(fields["relation_counts"])
    prepare(kind, int(seed), Path(out), synth.GraphShape(**fields), flags)
