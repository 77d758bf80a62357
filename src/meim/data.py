"""Benchmark triple files, vocabularies, the filter index, and the binary file container.

Datasets are directories with train.txt / valid.txt / test.txt, one triple
per line as "head<TAB>relation<TAB>tail". Vocabularies are assigned in
first-seen order scanning train, then valid, then test, which makes id
assignment deterministic and text round trips exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, IdLookupError, ParseError

SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}

_CACHE_MAGIC = b"MEIMTRPL"
_CACHE_VERSION = 2
_BLOCK_BYTES = 2**20  # the most bytes of an array that `row_blocks` hands out at once


class IdNames(Sequence):
    """The names prefix0, prefix1, ... of an anonymous vocabulary, each made when read."""

    def __init__(self, prefix: str, size: int):
        self._prefix, self._ids = prefix, range(size)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [f"{self._prefix}{j}" for j in self._ids[i]]
        return f"{self._prefix}{self._ids[i]}"


@dataclass
class TripleStore:
    """Integer-encoded triples (h, t, r) for all splits plus vocabularies."""

    entity_names: Sequence[str]
    relation_names: Sequence[str]
    splits: dict[str, np.ndarray]

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    @classmethod
    def from_ids(cls, num_entities: int, num_relations: int,
                 splits: dict[str, np.ndarray]) -> "TripleStore":
        """Store over anonymous vocabularies, e.g. loaded from a binary cache."""
        return cls(
            entity_names=IdNames("e", num_entities),
            relation_names=IdNames("r", num_relations),
            splits={k: np.asarray(v, dtype=np.int32).reshape(-1, 3) for k, v in splits.items()},
        )


def _parse_file(path: Path) -> list[tuple[str, str, str]]:
    blob = path.read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count line breaks as the parser splits lines: \r\n, \r and \n each end one
        head = blob[:exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path.name}:{lineno}: not UTF-8 text (byte {blob[exc.start]:#04x})") from None
    rows = []
    # universal newlines, as reading the file in text mode would give
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"{path.name}:{lineno}: expected head<TAB>relation<TAB>tail, got {len(fields)} fields"
            )
        rows.append((fields[0], fields[1], fields[2]))
    return rows


def _copies(names) -> list[str]:
    """New string objects equal to `names`, in order; a name holds no tab.

    The first-seen names are spread over every memory arena of the parse, so
    keeping them would keep all of those arenas resident after the parse is
    dropped. Copies made while the parse is still alive cannot land in its
    full arenas, so dropping the parse then hands most of them back.
    """
    return "\t".join(names).split("\t") if names else []


def load_triples(directory) -> TripleStore:
    """Load a benchmark directory into an integer-encoded store.

    Raises FileNotFoundError for missing split files, ParseError for
    malformed lines, and ParseError for duplicate triples within a split
    (benchmark files contain none, so duplicates signal corruption).
    The store's names are fresh copies, so the memory of the parse is
    handed back once it returns.
    """
    directory = Path(directory)
    raw = {}
    for split, fname in SPLIT_FILES.items():
        path = directory / fname
        if not path.exists():
            raise FileNotFoundError(f"missing split file {path}")
        raw[split] = _parse_file(path)

    rows = [row for split in SPLIT_FILES for row in raw[split]]
    # first-seen order over heads and tails interleaved, as the triples are read
    ent_names = [name for h, _, t in rows for name in (h, t)]
    rel_names = [r for _, r, _ in rows]
    entity_ids = {name: i for i, name in enumerate(dict.fromkeys(ent_names))}
    relation_ids = {name: i for i, name in enumerate(dict.fromkeys(rel_names))}
    store = TripleStore(_copies(entity_ids), _copies(relation_ids), {})
    ids = np.empty((len(rows), 3), dtype=np.int32)
    ids[:, :2] = np.fromiter(map(entity_ids.__getitem__, ent_names), np.int32,
                             len(ent_names)).reshape(-1, 2)
    ids[:, 2] = np.fromiter(map(relation_ids.__getitem__, rel_names), np.int32, len(rel_names))

    start = 0
    for split in SPLIT_FILES:
        store.splits[split] = part = ids[start:start + len(raw[split])]
        start += len(part)
        # one int64 key per row; a stable sort puts each repeat right after an earlier copy
        h, t, r = part.T.astype(np.int64)
        key = (h * store.num_entities + t) * store.num_relations + r
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        if repeats.size:
            h, r, t = raw[split][repeats.min()]
            raise ParseError(f"duplicate triple in {split}: {h}\t{r}\t{t}")
    return store


def check_ids(ids: np.ndarray, limit: int, kind: str):
    """IdLookupError naming the first of `ids` outside [0, limit)."""
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        bad = ids[(ids < 0) | (ids >= limit)][0]
        raise IdLookupError(f"{kind} id {bad} outside vocabulary of size {limit}")


def queries(triples, num_relations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The known entity, query id and answer of the 2B queries of B (h, t, r) triples.

    Rows 0..B-1 are the tail queries (h, r) -> t, rows B..2B-1 the head
    queries (t, r + R) -> h. A query id q < R maps the known entity through
    M_q, and q >= R through the transpose of M_{q-R}, so head prediction
    adds no parameters. A relation id outside [0, R) raises IdLookupError:
    r = R in a tail row would read as the head query of relation 0.
    """
    triples = np.asarray(triples).reshape(-1, 3)
    h, t, r = triples.T
    check_ids(r, num_relations, "relation")
    return np.concatenate([h, t]), np.concatenate([r, r + num_relations]), np.concatenate([t, h])


class FilterIndex:
    """Answer sets of the (known entity, query id) queries of `queries`, as one sorted array.

    It holds one int64 code per distinct (query, answer) pair, key << bits | answer
    with key = known * 2R + query and `bits` enough for any entity id, sorted and
    without repeats. So each query's answers are one run of the codes, in
    ascending order.
    """

    def __init__(self, num_entities: int, num_relations: int, codes: np.ndarray):
        self.num_entities, self.num_relations, self._codes = num_entities, num_relations, codes
        self._bits = max(num_entities - 1, 0).bit_length()

    def answers(self, known_ids, query_ids) -> tuple[np.ndarray, np.ndarray]:
        """CSR rows (offsets, int32 ids) of a batch of queries; an unknown query's row is empty."""
        known = np.asarray(known_ids, dtype=np.int64)
        query = np.asarray(query_ids, dtype=np.int64)
        num_queries, mask = 2 * self.num_relations, (1 << self._bits) - 1
        # an out-of-range id must not alias another query's codes: its bounds are -1,
        # below every code, so its run is empty
        low = np.where((known >= 0) & (known < self.num_entities) & (query >= 0)
                       & (query < num_queries), (known * num_queries + query) << self._bits, -1)
        first = np.searchsorted(self._codes, low, side="left")
        lengths = np.searchsorted(self._codes, low | mask, side="right") - first
        row_offsets = np.concatenate([[0], np.cumsum(lengths)])
        # position of every answer: its row's start plus its place within the row
        at = np.repeat(first - row_offsets[:-1], lengths) + np.arange(row_offsets[-1])
        return row_offsets, (self._codes[at] & mask).astype(np.int32)


def _pair_codes(parts, num_relations: int, bits: int) -> np.ndarray:
    """The codes key << bits | answer of the query pairs of the triples of `parts`, as
    one (2n,) int64 array: the tail queries' pairs, then the head queries'."""
    n = sum(map(len, parts))
    codes = np.empty(2 * n, dtype=np.int64)
    start = 0
    for part in parts:
        h, t, r = np.asarray(part).T
        check_ids(r, num_relations, "relation")
        for at, known, offset, answer in ((start, h, 0, t), (n + start, t, num_relations, h)):
            code = codes[at:at + len(part)]
            np.multiply(known, 2 * num_relations, out=code, dtype=np.int64)
            code += r
            code += offset
            code <<= bits
            code |= answer
        start += len(part)
    return codes


def build_filter_index(store: TripleStore, splits=("train", "valid", "test")) -> FilterIndex:
    """Exact answer sets of the queries of the triples of the given splits.

    Each (key, answer) pair of `queries` is one int64 code, key << bits | answer
    with `bits` enough for any entity id, so that sorting the codes lists each
    key's answers in ascending order. Raises ConfigError when a vocabulary is
    too large for such a code.
    """
    num_entities, num_relations = store.num_entities, store.num_relations
    bits = max(num_entities - 1, 0).bit_length()
    if (num_entities * 2 * num_relations) << bits > 2 ** 63:
        raise ConfigError(f"{num_entities} entities and {num_relations} relations are too many "
                          "for the filter index's int64 (query, answer) codes")
    codes = _pair_codes([store.splits[split] for split in splits], num_relations, bits)
    codes.sort()
    repeat = codes[1:] == codes[:-1]  # a pair repeated across splits counts once
    if repeat.any():
        codes = np.delete(codes, np.flatnonzero(repeat))
    return FilterIndex(num_entities, num_relations, codes)


def batches(store: TripleStore, split: str, batch_size: int, seed: int):
    """Seeded shuffle of one split, yielded in batches; the short tail batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    triples = store.splits[split]
    order = np.random.default_rng(seed).permutation(len(triples))
    for start in range(0, len(triples), batch_size):
        yield triples[order[start:start + batch_size]]


@contextmanager
def atomic_open(path):
    """A binary file for writing that replaces `path` only once the with-block completes.

    The bytes go to a temporary file beside `path`. A write that fails or
    is killed midway leaves any previous file at `path` whole, and removes
    the temporary file.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # interrupts too: remove the partial file, then re-raise
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def row_blocks(arr: np.ndarray) -> list[slice]:
    """Slices of `arr`'s first axis that cover it in order, each of one row or at most 1 MiB."""
    step = max(1, _BLOCK_BYTES // max(1, arr.itemsize * math.prod(arr.shape[1:])))
    return [slice(start, start + step) for start in range(0, len(arr), step)]


def save_container(path, magic: bytes, version: int, meta, arrays: dict[str, np.ndarray],
                   dtype: str):
    """Binary container, written atomically (`atomic_open`): magic, version u16,
    a u32-length JSON meta block, a u32 tensor count, then per tensor a
    u16-length UTF-8 name, u8 ndim, u32 dims and the data in `dtype`, C order.

    Each array is written in `row_blocks`, so one in another memory order,
    such as the entity-minor table of `model.entity_minor`, costs a copy of
    one block at a time, not of the whole array; a C-ordered array already
    in `dtype` is written from its own buffer.
    """
    blob = json.dumps(meta).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(magic + struct.pack("<HI", version, len(blob)) + blob + struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                                 arr.ndim, *arr.shape))
            rows = np.atleast_1d(arr)  # a view, so a 0-d array has a row too
            for block in row_blocks(rows):
                fh.write(np.ascontiguousarray(rows[block], dtype=dtype).data)


def load_container(path, magic: bytes, version: int, dtype: str, what: str,
                   empty=lambda name, shape, dtype: np.empty(shape, dtype)):
    """The meta and named arrays of a `save_container` file, each allocated by
    `empty(name, shape, dtype)`. Every length is checked against the file's size
    before it is read or allocated; a bad file raises CheckpointError naming
    `path` and `what`, the kind of file. A C-ordered array is read straight into
    its own buffer; any other, such as an entity-minor table (`model.entity_minor`),
    is filled in `row_blocks`, as `save_container` wrote it, through one scratch block.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def need(nbytes: int, part: str = f"{what} header") -> int:
                """`nbytes`, once the rest of the file is known to hold that many."""
                if fh.tell() + nbytes > size:
                    raise CheckpointError(f"{path}: truncated {part}")
                return nbytes

            if fh.read(len(magic)) != magic:
                raise CheckpointError(f"{path}: bad magic bytes, not a {what}")
            found, meta_len = struct.unpack("<HI", fh.read(need(6)))
            if found != version:
                raise CheckpointError(f"{path}: unsupported {what} version {found}")
            meta = json.loads(fh.read(need(meta_len)).decode("utf-8"))
            (count,) = struct.unpack("<I", fh.read(need(4)))
            arrays = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<H", fh.read(need(2)))
                name = fh.read(need(name_len)).decode("utf-8")
                (ndim,) = struct.unpack("<B", fh.read(need(1)))
                shape = struct.unpack(f"<{ndim}I", fh.read(need(4 * ndim)))
                need(np.dtype(dtype).itemsize * math.prod(shape), f"tensor payload for {name!r}")
                arrays[name] = arr = empty(name, shape, dtype)
                if arr.flags.c_contiguous:
                    fh.readinto(arr)
                else:  # so it has a first axis
                    scratch = np.empty(arr[row_blocks(arr)[0]].shape, dtype=dtype)
                    for block in row_blocks(arr):
                        fh.readinto(part := scratch[:len(arr[block])])
                        arr[block] = part
                    del scratch, part  # freed before the next array's is made
    except (struct.error, ValueError) as exc:  # a bad JSON, UTF-8 or too large a shape is a ValueError
        raise CheckpointError(f"{path}: corrupt {what} header ({exc})") from exc
    return meta, arrays


def meta_counts(path, what: str, meta, keys: tuple[str, ...]) -> list[int]:
    """The values of `keys` in a container's meta; CheckpointError unless each is an int >= 0."""
    values = [meta.get(key) if isinstance(meta, dict) else None for key in keys]
    for key, value in zip(keys, values):
        if type(value) is not int or value < 0:  # bool is an int subclass, so `type`
            raise CheckpointError(f"{path}: {what} meta {key} is {value!r}, not an integer >= 0")
    return values


def save_cache(store: TripleStore, path):
    """Binary id-triple cache: a container of int32 (n, 3) splits; written atomically."""
    save_container(path, _CACHE_MAGIC, _CACHE_VERSION,
                   {"num_entities": store.num_entities, "num_relations": store.num_relations},
                   {split: store.splits[split] for split in SPLIT_FILES}, "<i4")


def load_dataset(path) -> TripleStore:
    """Load either a dataset directory or a binary cache file."""
    return load_cache(path) if Path(path).is_file() else load_triples(path)


def load_cache(path) -> TripleStore:
    """Read a binary cache, whose splits must be (n, 3) arrays of ids inside the
    vocabulary sizes; names are anonymous (the cache stores ids only)."""
    meta, arrays = load_container(path, _CACHE_MAGIC, _CACHE_VERSION, "<i4", "triple cache")
    sizes = meta_counts(path, "triple cache", meta, ("num_entities", "num_relations"))
    if max(sizes) > 2**31:  # more than its int32 ids can name; a range that long overflows
        raise CheckpointError(f"{path}: triple cache meta counts {sizes} exceed 2**31")
    limits = np.array([sizes[0], sizes[0], sizes[1]])  # columns (h, t, r)
    for split in SPLIT_FILES:
        part = arrays.get(split)
        if part is None or part.ndim != 2 or part.shape[1] != 3:
            raise CheckpointError(f"{path}: split {split!r} is not an (n, 3) array")
        # reductions screen the split; a mask is built only to name its first bad id
        if part.size and (part.min() < 0 or part.max() >= sizes[0] or part[:, 2].max() >= sizes[1]):
            bad = np.argwhere((part < 0) | (part >= limits))
            if bad.size:  # the screen's max also sees relation ids, which may reach num_entities
                row, col = bad[0]
                raise CheckpointError(
                    f"{path}: {split} triple {row} has {('head', 'tail', 'relation')[col]} id "
                    f"{part[row, col]} outside [0, {limits[col]})")
    return TripleStore.from_ids(*sizes, {split: arrays[split] for split in SPLIT_FILES})
