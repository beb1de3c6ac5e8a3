"""Feature assembly and serialization.

One Gram source drives every requested feature family: per-edge effective
resistances and directed hitting-time pairs come from the closed form on L+
(exact) or on a sketched embedding, next to node embedding rows and edge
difference vectors. A manifest records everything needed to regenerate the
numbers bit for bit: graph hash, solver settings, sketch parameters, and
rotation seeds.

The edge rows are gathered a block at a time (see
:func:`affinity.embeddings._blocks`) and the edge embedding is written into
its final array block by block. Exports stream: the text writers format a
block of rows at a time, a binary array file is its header and then the
array's own little-endian float64 buffer, and the binary reader reads the
payload straight into the array it returns. Every file is written through
one opener, :func:`_rewrite`, which rewrites an existing file in place.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .embeddings import (JL_CONSTANT, PROJECTION, _blocks, exact_embedding,
                         random_rotation, sketched_embedding)
from .graph import Graph, GraphInputError
from .measures import _closed_form
from .solvers import SolverConfig, _plan, dense_pseudoinverse

FAMILIES = ("edge_er", "edge_ht", "node_embedding", "edge_embedding")

FORMAT_VERSION = 8

_BINARY_MAGIC = b"RESE"
_FLAG_SKETCHED = 1
_FLAG_ROTATED = 2
_FLAG_INTEGER = 4


@dataclass(frozen=True)
class FeatureSet:
    """Assembled feature arrays plus their provenance manifest.

    Families not requested are None. ``edge_index`` always tags the edge
    order the per-edge arrays follow.
    """

    num_nodes: int
    edge_index: np.ndarray
    manifest: dict
    edge_er: np.ndarray | None = None
    edge_ht: np.ndarray | None = None
    node_embedding: np.ndarray | None = None
    edge_embedding: np.ndarray | None = None

    def family_arrays(self) -> dict:
        arrays = {name: getattr(self, name) for name in FAMILIES}
        return {name: arr for name, arr in arrays.items() if arr is not None}


def graph_digest(graph: Graph) -> str:
    """SHA-256 over the canonical edge arrays, for manifest provenance."""
    h = hashlib.sha256()
    h.update(np.int64(graph.num_nodes).tobytes())
    h.update(np.ascontiguousarray(graph.edge_u, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(graph.edge_v, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(graph.edge_w, dtype="<f8").tobytes())
    return h.hexdigest()


def assemble_features(graph: Graph, families, epsilon: float | None = None,
                      seed: int = 0,
                      config: SolverConfig | None = None) -> FeatureSet:
    """Compute the requested feature families from one Gram source.

    With ``epsilon`` None the edge measures read the pseudoinverse L+ and
    the embedding families the exact embedding, built only when one is
    requested (graph must be within the pseudoinverse's node cap); otherwise
    every family comes from one sketched embedding with the given seed.

    Args:
        families: iterable drawn from ``FAMILIES``.
        epsilon: sketch distortion, or None for the exact path.
        seed: sketch seed (ignored on the exact path).
        config: solver settings.
    """
    requested = list(dict.fromkeys(families))
    if not requested:
        raise ValueError("no feature families requested")
    unknown = [f for f in requested if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}; valid: {list(FAMILIES)}")
    config = config or SolverConfig()

    if epsilon is None:
        # the edge measures read L+ itself; only the embedding families need
        # the (n, m) exact embedding
        gram = dense_pseudoinverse(graph)
        vecs = exact_embedding(graph).vectors if any(
            name.endswith("embedding") for name in requested) else None
    else:
        gram = sketched_embedding(graph, epsilon, seed, config)
        vecs = gram.vectors

    u, v = graph.edge_u, graph.edge_v
    edge_values = "edge_er" in requested or "edge_ht" in requested
    diffs = np.empty((graph.num_edges, vecs.shape[1])) \
        if "edge_embedding" in requested else None
    arrays = {"node_embedding": vecs, "edge_embedding": diffs}
    # a sketch's closed form reads the edge rows, so it fills diffs on the way
    filled = epsilon is not None and edge_values
    if edge_values:
        arrays["edge_er"], forth, back = _closed_form(
            graph, gram, u, v, diffs if filled else None)
        arrays["edge_ht"] = np.column_stack([forth, back])
    if diffs is not None and not filled:
        _edge_rows(vecs, u, v, diffs)

    manifest = {
        "format_version": FORMAT_VERSION,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "graph_sha256": graph_digest(graph),
        "families": requested,
        "kind": "exact" if epsilon is None else "sketched",
        "embedding_dim": graph.num_edges if epsilon is None else gram.dim,
        "epsilon": None if epsilon is None else gram.epsilon,
        "seed": None if epsilon is None else gram.seed,
        "jl_constant": None if epsilon is None else JL_CONSTANT,
        "projection": None if epsilon is None else PROJECTION,
        "edge_embedding_convention": "row = embedding[u] - embedding[v]",
        # the route the sketch's solves took, then the solver settings
        "solver": {"route": None if epsilon is None
                   else _plan(graph, solve=True).route, **asdict(config)},
        "rotation_seeds": [],
    }
    return FeatureSet(
        num_nodes=graph.num_nodes,
        edge_index=np.column_stack([graph.edge_u, graph.edge_v]),
        manifest=manifest,
        **{name: arrays[name] for name in requested},
    )


def _edge_rows(vecs: np.ndarray, u: np.ndarray, v: np.ndarray,
               out: np.ndarray) -> None:
    """out[e] = vecs[u[e]] - vecs[v[e]], the manifest's
    ``edge_embedding_convention``, written into ``out`` a block of edges at
    a time through one reused scratch block for the rows vecs[v]."""
    blocks = _blocks(len(u), vecs.shape[1])
    scratch = np.empty((blocks[0].stop if blocks else 0, vecs.shape[1]))
    for block in blocks:
        rows, rows_v = out[block], scratch[:block.stop - block.start]
        # take's "raise" mode would gather into a buffer first, "wrap" does not
        np.take(vecs, u[block], axis=0, out=rows, mode="wrap")
        np.take(vecs, v[block], axis=0, out=rows_v, mode="wrap")
        np.subtract(rows, rows_v, out=rows)


def augment_with_rotation(features: FeatureSet, rotation_seed: int) -> FeatureSet:
    """Rotate the embedding-valued families by a seeded random rotation.

    Distance-derived families (edge_er, edge_ht) are untouched; the seed is
    appended to the manifest so the exact arrays can be replayed. The edge
    embedding relies on the manifest's convention, row = embedding[u] -
    embedding[v]: with node rows present, the rotated edge rows are the
    differences of the rotated node rows, so only the (n, k) node rows pass
    through a product with the rotation and no (m, k) temporary is made. A
    set holding only the edge embedding rotates its rows in one product. An
    embedding without columns rotates to itself.
    """
    target = features.node_embedding if features.node_embedding is not None \
        else features.edge_embedding
    if target is None:
        raise ValueError("feature set has no embedding-valued family to rotate")
    dim = target.shape[1]
    # the (0, 0) corner of a 1 x 1 rotation still checks the seed
    rotation = random_rotation(max(dim, 1), rotation_seed)[:dim, :dim]
    updates: dict = {}
    if features.node_embedding is not None:
        updates["node_embedding"] = features.node_embedding @ rotation.T
        if features.edge_embedding is not None:
            updates["edge_embedding"] = np.empty(features.edge_embedding.shape)
            _edge_rows(updates["node_embedding"], features.edge_index[:, 0],
                       features.edge_index[:, 1], updates["edge_embedding"])
    elif features.edge_embedding is not None:
        updates["edge_embedding"] = features.edge_embedding @ rotation.T
    manifest = dict(features.manifest)
    manifest["rotation_seeds"] = list(manifest.get("rotation_seeds", [])) \
        + [int(rotation_seed)]
    return dc_replace(features, manifest=manifest, **updates)


def _array_rows(arr: np.ndarray) -> np.ndarray:
    return arr[:, None] if arr.ndim == 1 else arr


def _table_names(fmt: str, families) -> list[str]:
    """Tables of a csv or binary export in write order; csv has an edge index
    table only when no edge table carries the index in its u,v columns."""
    if fmt == "binary":
        return ["edge_index", *families]
    if any(name.startswith("edge_") for name in families):
        return list(families)
    return [*families, "edge_index"]


@contextmanager
def _rewrite(path, *args, **kwargs):
    """Open ``path`` for writing as ``open(path, *args, **kwargs)`` with a
    "w" or "wb" mode does, but without truncating it first: the writer
    writes over the old bytes from offset 0, and the file is cut where
    writing stopped, also when the writer raises. So a shorter file leaves
    no stale tail, and a failed write leaves a prefix of the new file, as
    under ``O_TRUNC``. Rewriting in place keeps the old file's blocks
    instead of freeing and reallocating them, which costs more than the
    write itself on filesystems that discard freed blocks. The file keeps
    its inode, mode and hard links. A file that is not regular (a pipe, a
    terminal, /dev/null) is not cut, as ``O_TRUNC`` leaves it too.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, *args, **kwargs) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _write_csv_table(path: Path, name: str, arr: np.ndarray,
                     features: FeatureSet) -> None:
    """A header, then each row's index column(s) and ``repr`` of each value;
    lines end in CRLF, as the standard csv writer ends them. Rows are
    formatted and written a block at a time."""
    rows = _array_rows(arr)
    edge = name.startswith("edge_")
    head = ["u", "v"] if edge else ["node"]
    with _rewrite(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(head + [f"c{j}" for j in range(rows.shape[1])])
                 + "\r\n")
        for block in _blocks(rows.shape[0], rows.shape[1] + len(head)):
            index = features.edge_index[block].tolist() if edge \
                else [[node] for node in range(block.start, block.stop)]
            fh.writelines(",".join(map(repr, at + row)) + "\r\n"
                          for at, row in zip(index, rows[block].tolist()))


def _write_json_array(fh, arr: np.ndarray, indent: str) -> None:
    """``json.dumps(arr.tolist(), indent=2)`` with every line after the
    first indented by ``indent``, written one innermost row at a time."""
    if arr.ndim > 1 and len(arr):
        inner = indent + "  "
        fh.write("[\n" + inner)
        for i, row in enumerate(arr):
            if i:
                fh.write(",\n" + inner)
            _write_json_array(fh, row, inner)
        fh.write("\n" + indent + "]")
    elif len(arr):
        inner = "\n" + indent + "  "
        text = "[" + inner + ("," + inner).join(map(repr, arr.tolist()))
        # a number's repr holds no letters but those of nan and inf, which
        # json spells NaN, Infinity and -Infinity
        fh.write(text.replace("nan", "NaN").replace("inf", "Infinity")
                 + "\n" + indent + "]")
    else:
        fh.write("[]")


def _write_json(fh, features: FeatureSet) -> None:
    """The json export, byte for byte what ``json.dump`` of the document
    with ``indent=2, sort_keys=True`` and a closing newline writes, but with
    its numeric tables streamed row by row through ``repr``."""
    tables = features.family_arrays()
    fh.write('{\n  "arrays": {')
    for i, name in enumerate(sorted(tables)):
        fh.write(("," if i else "") + f"\n    {json.dumps(name)}: ")
        _write_json_array(fh, tables[name], "    ")
    fh.write('\n  },\n  "edge_index": ' if tables
             else '},\n  "edge_index": ')
    _write_json_array(fh, features.edge_index, "  ")
    manifest = json.dumps(features.manifest, indent=2, sort_keys=True)
    # json escapes every newline inside a string, so each one here is a line
    # break to indent one level deeper
    fh.write(',\n  "manifest": ' + manifest.replace("\n", "\n  ") + "\n}\n")


def _write_binary_array(path: Path, name: str, arr: np.ndarray,
                        features: FeatureSet) -> None:
    """The 16-byte header, then the table's little-endian float64 buffer,
    written as it is when the table already is one (copied once if not)."""
    flags = _FLAG_INTEGER if name == "edge_index" else 0
    if features.manifest.get("kind") == "sketched":
        flags |= _FLAG_SKETCHED
    if features.manifest.get("rotation_seeds"):
        flags |= _FLAG_ROTATED
    rows = _array_rows(np.ascontiguousarray(arr, dtype="<f8"))
    with _rewrite(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _BINARY_MAGIC, rows.shape[0],
                             rows.shape[1], flags))
        fh.write(rows)


def _read_csv_table(path: Path) -> np.ndarray:
    """Every column of a csv table, index columns included, as float64,
    parsed by numpy's C reader."""
    try:
        with path.open("rb") as fh:
            columns = fh.readline().count(b",") + 1
            # loadtxt warns on a table without rows, which is no fault here
            if not fh.peek(1):
                return np.empty((0, columns))
            table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise GraphInputError(f"{path}: {exc}") from exc
    if table.shape[1] != columns:
        raise GraphInputError(f"{path}: the header names {columns} columns, "
                              f"the rows hold {table.shape[1]}")
    return table


def _read_binary_array(path: Path) -> np.ndarray:
    """The table of a binary array file, its payload read straight into the
    returned array after the header and the file size are checked."""
    with path.open("rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise GraphInputError(f"{path}: truncated binary array")
        magic, rows, cols, _ = struct.unpack("<4sIII", header)
        if magic != _BINARY_MAGIC:
            raise GraphInputError(f"{path}: bad magic {magic!r}, "
                                  f"expected {_BINARY_MAGIC!r}")
        expected = 16 + rows * cols * 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise GraphInputError(f"{path}: expected {expected} bytes for "
                                  f"{rows}x{cols} float64, got {size}")
        data = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(data) != data.nbytes:  # shrunk since the size check
            raise GraphInputError(f"{path}: truncated binary array")
    return data


_TABLE_CODECS = {"csv": (".csv", _write_csv_table, _read_csv_table),
                 "binary": (".bin", _write_binary_array, _read_binary_array)}


def export_features(features: FeatureSet, fmt: str, path: str | Path) -> list[Path]:
    """Write a feature set to disk; returns the files written.

    Formats:
        json: one file holding manifest plus nested-list arrays.
        csv: a directory with manifest.json and one CSV per family, plus
            edge_index.csv when no edge family carries the edge index.
        binary: a directory with manifest.json, edge_index.bin and one packed
            array file per family (16-byte header: magic, rows, cols, flags;
            then row-major little-endian float64).

    A file that already exists, such as one of an earlier export to the
    same path, is rewritten in place and cut at its new end: it keeps its
    inode, no byte of the older file is left after the new one, and a
    write that fails leaves a prefix of the new file. Files of the older
    export that the new one does not name are left as they are.
    """
    path = Path(path)
    if fmt == "json":
        if path.is_dir():
            path = path / "features.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with _rewrite(path, "w") as fh:
            _write_json(fh, features)
        return [path]
    if fmt not in _TABLE_CODECS:
        raise ValueError(f"unknown format {fmt!r}; expected json, csv, or binary")
    suffix, write, _ = _TABLE_CODECS[fmt]
    path.mkdir(parents=True, exist_ok=True)
    written = [path / "manifest.json"]
    with _rewrite(written[0], "w") as fh:
        fh.write(json.dumps(features.manifest, indent=2, sort_keys=True) + "\n")
    tables = features.family_arrays()
    names = _table_names(fmt, tables)
    # a csv edge index table is its u,v columns alone
    tables["edge_index"] = features.edge_index if fmt == "binary" \
        else np.zeros((features.edge_index.shape[0], 0))
    for name in names:
        written.append(path / f"{name}{suffix}")
        write(written[-1], name, tables[name], features)
    return written


def _family_shape(name: str, manifest: dict) -> tuple[int, ...]:
    """Shape of a table as assembled, which the text formats lose when it
    has no rows or no columns."""
    rows = manifest["num_nodes"] if name == "node_embedding" \
        else manifest["num_edges"]
    if name == "edge_er":
        return (rows,)
    return (rows, 2 if name in ("edge_index", "edge_ht")
            else manifest["embedding_dim"])


def _json_table(source: Path, name: str, values) -> np.ndarray:
    """A json export's table as float64, or GraphInputError naming the file
    when its values are not numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphInputError(
            f"{source}: {name!r} is not a table of numbers: {exc}") from None


def load_features(path: str | Path, fmt: str) -> FeatureSet:
    """Read back a feature set written by :func:`export_features`.

    The tables read are the ones the manifest's ``families`` lists.

    Raises:
        GraphInputError: naming the file, when it is malformed, lacks a key
            or a table, lists a family outside ``FAMILIES``, gives a negative
            or non-integer size, holds a table of non-numbers, a table
            holds a different number of values than the manifest gives, or
            the edge index holds an id that is not an integer node id in
            0..num_nodes - 1 (NaN and infinities included).
    """
    path = Path(path)
    if fmt == "json":
        source = path / "features.json" if path.is_dir() else path
    elif fmt in _TABLE_CODECS:
        source = path / "manifest.json"
    else:
        raise ValueError(f"unknown format {fmt!r}; expected json, csv, or binary")
    try:
        doc = json.loads(source.read_text())
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphInputError(f"{source}: top-level JSON value must be an object")
    try:
        if fmt == "json":
            for key in ("manifest", "arrays"):
                if not isinstance(doc[key], dict):
                    raise GraphInputError(
                        f"{source}: {key!r} must be a JSON object")
        manifest = doc["manifest"] if fmt == "json" else doc
        families = manifest["families"]
        if not isinstance(families, list) or not all(
                isinstance(name, str) and name in FAMILIES for name in families):
            raise GraphInputError(f"{source}: 'families' must be a list of "
                                  f"names in {list(FAMILIES)}, got {families!r}")
        sizes = ["num_nodes", "num_edges"]
        if any(name.endswith("embedding") for name in families):
            sizes.append("embedding_dim")
        for key in sizes:
            if type(manifest[key]) is not int or manifest[key] < 0:
                raise GraphInputError(f"{source}: {key!r} must be a "
                                      f"non-negative int, got {manifest[key]!r}")
        if fmt == "json":
            raw = {"edge_index": doc["edge_index"],
                   **{name: doc["arrays"][name] for name in families}}
            tables = {name: (source, _json_table(source, name, values))
                      for name, values in raw.items()}
        else:
            suffix, _, read = _TABLE_CODECS[fmt]
            tables = {}
            for name in _table_names(fmt, families):
                file = path / f"{name}{suffix}"
                if not file.is_file():
                    raise GraphInputError(f"{source}: lists table {name!r}, "
                                          f"but {file} is missing")
                tables[name] = (file, read(file))
            if fmt == "csv":
                # drop the index columns; the first edge table's u,v columns
                # are the edge index
                file, table = tables[next(n for n in tables
                                          if n.startswith("edge_"))]
                tables = {n: (f, t[:, 2 if n.startswith("edge_") else 1:])
                          for n, (f, t) in tables.items()}
                tables["edge_index"] = (file, table[:, :2])
        arrays = {}
        for name, (file, table) in tables.items():
            shape = _family_shape(name, manifest)
            if table.size != np.prod(shape):
                raise GraphInputError(f"{file}: {name} holds {table.size} "
                                      f"values, the manifest gives shape {shape}")
            arrays[name] = table.reshape(shape)
        index, n = arrays.pop("edge_index"), manifest["num_nodes"]
        bad = index[~((index >= 0) & (index < n) & (index == np.floor(index)))]
        if bad.size:
            raise GraphInputError(
                f"{tables['edge_index'][0]}: edge_index holds "
                f"{float(bad[0])!r}, not a node id in 0..{n - 1}")
        return FeatureSet(num_nodes=n, edge_index=index.astype(np.int64),
                          manifest=manifest, **arrays)
    except KeyError as exc:
        raise GraphInputError(f"{source}: missing key {exc}") from None
