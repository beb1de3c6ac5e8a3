"""Feature assembly and serialization.

One Gram source drives every requested feature family: per-edge effective
resistances and directed hitting-time pairs come from the closed form on L+
(exact) or on a sketched embedding, next to node embedding rows and edge
difference vectors. A manifest records everything needed to regenerate the
numbers bit for bit: graph hash, solver settings, sketch parameters, and
rotation seeds.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from .embeddings import (JL_CONSTANT, PROJECTION, exact_embedding,
                         random_rotation, sketched_embedding)
from .graph import Graph, GraphInputError
from .measures import _closed_form
from .solvers import SolverConfig, _solve_route, dense_pseudoinverse

FAMILIES = ("edge_er", "edge_ht", "node_embedding", "edge_embedding")

FORMAT_VERSION = 4

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

    edge_values = "edge_er" in requested or "edge_ht" in requested
    rows = None
    if "edge_embedding" in requested or (epsilon is not None and edge_values):
        rows = vecs[graph.edge_u], vecs[graph.edge_v]
        rows += (rows[0] - rows[1],)
    arrays = {"node_embedding": vecs,
              "edge_embedding": None if rows is None else rows[2]}
    if edge_values:
        arrays["edge_er"], forth, back = _closed_form(
            graph, gram, graph.edge_u, graph.edge_v, rows)
        arrays["edge_ht"] = np.column_stack([forth, back])

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
        # the route the sketch's solves took, then the sparse routes' settings
        "solver": {"route": None if epsilon is None else _solve_route(graph),
                   **asdict(config)},
        "rotation_seeds": [],
    }
    return FeatureSet(
        num_nodes=graph.num_nodes,
        edge_index=np.column_stack([graph.edge_u, graph.edge_v]),
        manifest=manifest,
        **{name: arrays[name] for name in requested},
    )


def augment_with_rotation(features: FeatureSet, rotation_seed: int) -> FeatureSet:
    """Rotate the embedding-valued families by a seeded random rotation.

    Distance-derived families (edge_er, edge_ht) are untouched; the seed is
    appended to the manifest so the exact arrays can be replayed.
    """
    target = features.node_embedding if features.node_embedding is not None \
        else features.edge_embedding
    if target is None:
        raise ValueError("feature set has no embedding-valued family to rotate")
    rotation = random_rotation(target.shape[1], rotation_seed)
    updates: dict = {}
    if features.node_embedding is not None:
        updates["node_embedding"] = features.node_embedding @ rotation.T
    if features.edge_embedding is not None:
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


def _write_csv_table(path: Path, name: str, arr: np.ndarray,
                     features: FeatureSet) -> None:
    """A header, then each row's index column(s) and ``repr`` of each value;
    lines end in CRLF, as the standard csv writer ends them."""
    rows = _array_rows(arr)
    if name.startswith("edge_"):
        head, index = ["u", "v"], features.edge_index.tolist()
    else:
        head, index = ["node"], [[node] for node in range(rows.shape[0])]
    lines = [",".join(head + [f"c{j}" for j in range(rows.shape[1])])]
    lines += [",".join(map(repr, at + row))
              for at, row in zip(index, rows.tolist())]
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())


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
    flags = _FLAG_INTEGER if name == "edge_index" else 0
    if features.manifest.get("kind") == "sketched":
        flags |= _FLAG_SKETCHED
    if features.manifest.get("rotation_seeds"):
        flags |= _FLAG_ROTATED
    rows = _array_rows(np.asarray(arr, dtype=np.float64))
    header = struct.pack("<4sIII", _BINARY_MAGIC, rows.shape[0],
                         rows.shape[1], flags)
    payload = np.ascontiguousarray(rows, dtype="<f8").tobytes()
    path.write_bytes(header + payload)


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
    blob = path.read_bytes()
    if len(blob) < 16:
        raise GraphInputError(f"{path}: truncated binary array")
    magic, rows, cols, _ = struct.unpack("<4sIII", blob[:16])
    if magic != _BINARY_MAGIC:
        raise GraphInputError(f"{path}: bad magic {magic!r}, "
                              f"expected {_BINARY_MAGIC!r}")
    expected = 16 + rows * cols * 8
    if len(blob) != expected:
        raise GraphInputError(f"{path}: expected {expected} bytes for "
                              f"{rows}x{cols} float64, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f8", offset=16).reshape(rows, cols)
    return data.copy()


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
    """
    path = Path(path)
    if fmt == "json":
        if path.is_dir():
            path = path / "features.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            _write_json(fh, features)
        return [path]
    if fmt not in _TABLE_CODECS:
        raise ValueError(f"unknown format {fmt!r}; expected json, csv, or binary")
    suffix, write, _ = _TABLE_CODECS[fmt]
    path.mkdir(parents=True, exist_ok=True)
    written = [path / "manifest.json"]
    written[0].write_text(json.dumps(features.manifest, indent=2,
                                     sort_keys=True) + "\n")
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
