"""Workload inputs, references, jobs and output checks.

Set-up side (``prepare``): inputs are generated from the workload seed with
numpy alone and written as files into a work directory, next to reference
values computed with scipy (sparse LU or CG on a grounded Laplacian) and
``numpy.linalg.pinv``. No input or reference comes from the package under
test, and no check routes through ``affinity.solvers``.

Timed side (``load_jobs``): each job calls the same public functions that
``affinity compute`` calls, through their module attributes, so the tracer can
rebind them. ``Job.check`` inspects a job's output against the references.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPSILON = 0.5
SAMPLED_EDGES = 32
EXACT_RTOL = 1e-8
ALL_FAMILIES = ("edge_er", "edge_ht", "node_embedding", "edge_embedding")

SIZES = {
    "full": {
        "expander_sketch": {"n": 2500, "m": 12500},
        "illcond_sketch": {"grid": 38, "wgrid": 40, "path": 1000,
                           "blocks": 4, "block_n": 500},
        "molecules_exact": {"count": 300, "n_min": 9, "n_max": 64},
        "text_io": {"n": 300, "m": 900},
    },
    "tiny": {
        "expander_sketch": {"n": 600, "m": 1800},
        "illcond_sketch": {"grid": 23, "wgrid": 8, "path": 60,
                           "blocks": 4, "block_n": 150},
        "molecules_exact": {"count": 6, "n_min": 9, "n_max": 20},
        "text_io": {"n": 120, "m": 300},
    },
}
WORKLOADS = tuple(SIZES["full"])


def import_affinity():
    """Import the package from this checkout's ``src``, never an installed
    copy. Raises ImportError when the checkout holds no package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import affinity
    where = Path(affinity.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"affinity imported from {where}, not from {SRC}")
    return affinity


# --------------------------------------------------------------- generation

@dataclass(frozen=True)
class Edges:
    """A generated graph: distinct edges with u < v, in file order."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    weighted: bool

    def json_text(self) -> str:
        if self.weighted:
            edges = [[a, b, c] for a, b, c in
                     zip(self.u.tolist(), self.v.tolist(), self.w.tolist())]
        else:
            edges = [[a, b] for a, b in zip(self.u.tolist(), self.v.tolist())]
        return json.dumps({"num_nodes": self.n, "edges": edges})

    def edgelist_text(self) -> str:
        return "".join(f"{a} {b} {c!r}\n" for a, b, c in
                       zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))


def _edges(n, keys, w, weighted) -> Edges:
    keys = np.asarray(keys, dtype=np.int64)
    return Edges(n, keys // n, keys % n, np.asarray(w, dtype=np.float64),
                 weighted)


def random_connected(rng, n: int, m: int, weighted: bool) -> Edges:
    """Random spanning tree (node i joins a uniform earlier node) plus
    distinct random extra edges up to m; weights U[0.5, 2] when weighted."""
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    keys = (parents * n + np.arange(1, n)).tolist()
    seen = set(keys)
    m = min(m, n * (n - 1) // 2)
    while len(keys) < m:
        a = rng.integers(0, n, size=2 * (m - len(keys)) + 16)
        b = rng.integers(0, n, size=a.size)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for key in (lo * n + hi)[lo < hi].tolist():
            if key not in seen and len(keys) < m:
                seen.add(key)
                keys.append(key)
    w = rng.uniform(0.5, 2.0, len(keys)) if weighted else np.ones(len(keys))
    return _edges(n, keys, w, weighted)


def grid(rows: int, cols: int, weights=None) -> Edges:
    idx = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = np.ones(u.size) if weights is None else weights(u.size)
    return _edges(rows * cols, u * (rows * cols) + v, w, weights is not None)


def path(n: int) -> Edges:
    return _edges(n, np.arange(n - 1) * n + np.arange(1, n), np.ones(n - 1),
                  False)


def disjoint(parts: list[Edges]) -> Edges:
    n = sum(p.n for p in parts)
    offsets = np.cumsum([0] + [p.n for p in parts[:-1]])
    u = np.concatenate([p.u + o for p, o in zip(parts, offsets)])
    v = np.concatenate([p.v + o for p, o in zip(parts, offsets)])
    w = np.concatenate([p.w for p in parts])
    return _edges(n, u * n + v, w, any(p.weighted for p in parts))


# --------------------------------------------------------------- references

def sampled_resistances(g: Edges, rng, direct: bool,
                        count: int = SAMPLED_EDGES) -> dict:
    """Effective resistance of ``count`` sampled edges, and the edge mass of
    each one's component, from scipy solves on the grounded Laplacian (one
    node per component removed): sparse LU when ``direct`` (grids and paths,
    whose fill-in is small), else Jacobi-preconditioned CG (random graphs,
    which are well conditioned but fill in densely)."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import cg, splu

    pos = np.sort(rng.choice(g.u.size, size=min(count, g.u.size),
                             replace=False))
    adj = sp.coo_matrix((g.w, (g.u, g.v)), shape=(g.n, g.n)).tocsr()
    adj = adj + adj.T
    lap = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    _, comp = connected_components(adj, directed=False)
    ground = np.unique(comp, return_index=True)[1]
    keep = np.setdiff1d(np.arange(g.n), ground)
    row = np.full(g.n, -1)
    row[keep] = np.arange(keep.size)
    grounded = lap[keep][:, keep].tocsc()
    rhs = np.zeros((keep.size, pos.size))
    for j, (a, b) in enumerate(zip(g.u[pos], g.v[pos])):
        if row[a] >= 0:
            rhs[row[a], j] += 1.0
        if row[b] >= 0:
            rhs[row[b], j] -= 1.0
    if direct:
        sol = splu(grounded).solve(rhs)
    else:
        inv_diag = sp.diags(1.0 / grounded.diagonal())
        sol = np.empty_like(rhs)
        for j in range(pos.size):
            sol[:, j], info = cg(grounded, rhs[:, j], rtol=1e-11,
                                 maxiter=20 * g.n, M=inv_diag)
            if info != 0:
                raise RuntimeError(f"reference CG did not converge ({info})")
    potential = np.zeros((g.n, pos.size))
    potential[keep] = sol
    cols = np.arange(pos.size)
    res = potential[g.u[pos], cols] - potential[g.v[pos], cols]
    mass = np.bincount(comp[g.u], weights=g.w)[comp[g.u[pos]]]
    return {"pos": pos, "pairs": np.column_stack([g.u[pos], g.v[pos]]),
            "res": res, "mass": mass, "m": np.array(g.u.size)}


def exact_tables(g: Edges) -> dict:
    """Per-edge resistance and both hitting times from a dense
    ``numpy.linalg.pinv`` and Tetali's formula
    H(u, v) = (2M R(u, v) + sum_w d_w R(v, w) - sum_w d_w R(u, w)) / 2."""
    lap = np.zeros((g.n, g.n))
    np.add.at(lap, (g.u, g.v), -g.w)
    np.add.at(lap, (g.v, g.u), -g.w)
    deg = -lap.sum(axis=1)
    lap[np.diag_indices(g.n)] = deg
    pinv = np.linalg.pinv(lap)
    diag = np.diag(pinv)
    res = diag[:, None] + diag[None, :] - 2.0 * pinv
    s = res @ deg
    hit = 0.5 * (deg.sum() * res + s[None, :] - s[:, None])
    return {"pairs": np.column_stack([g.u, g.v]), "er": res[g.u, g.v],
            "ht": np.column_stack([hit[g.u, g.v], hit[g.v, g.u]])}


# -------------------------------------------------------------------- set-up

def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text)
    return name


def prepare(workload: str, seed: int, size: str, workdir: Path) -> None:
    """Generate the workload's inputs and references into ``workdir``.

    Writes the input files, ``members.json`` (one entry per job) and
    ``reference.npz`` (arrays keyed ``<member>.<field>``)."""
    spec = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    refs: dict[str, np.ndarray] = {}
    members = []

    def add(name: str, g: Edges, kind: str, **extra):
        if kind == "exact":
            tables = exact_tables(g)
        else:
            tables = sampled_resistances(g, rng, direct=kind == "direct")
        refs.update({f"{name}.{k}": v for k, v in tables.items()})
        members.append({"member": name, "sketch_seed": int(seed), **extra})

    if workload == "expander_sketch":
        g = random_connected(rng, spec["n"], spec["m"], weighted=True)
        add("expander", g, "cg", input=_write(workdir, "expander.json",
                                                   g.json_text()))
    elif workload == "illcond_sketch":
        k, wk = spec["grid"], spec["wgrid"]
        graphs = {
            f"grid{k}": grid(k, k),
            f"wgrid{wk}": grid(wk, wk, lambda c: 10.0 ** rng.uniform(-2, 2, c)),
            f"path{spec['path']}": path(spec["path"]),
            f"disjoint{spec['blocks']}x{spec['block_n']}": disjoint(
                [random_connected(rng, spec["block_n"], 4 * spec["block_n"],
                                  weighted=True)
                 for _ in range(spec["blocks"])]),
        }
        for name, g in graphs.items():
            add(name, g, "cg" if name.startswith("disjoint") else "direct",
                input=_write(workdir, f"{name}.json", g.json_text()))
    elif workload == "molecules_exact":
        # sizes and degrees spread evenly, in seeded order, so that every
        # seed gives a pass of the same total size
        count = spec["count"]
        sizes = rng.permutation(np.linspace(spec["n_min"], spec["n_max"],
                                            count).round().astype(int))
        degrees = rng.permutation(np.linspace(2.1, 3.2, count))
        texts = []
        for i, (n, degree) in enumerate(zip(sizes.tolist(), degrees)):
            m = max(n - 1, round(degree * n / 2))
            g = random_connected(rng, n, m, weighted=bool(i % 2))
            add(f"mol{i:03d}", g, "exact", line=i)
            texts.append(g.json_text())
        _write(workdir, "molecules.jsonl", "\n".join(texts) + "\n")
    elif workload == "text_io":
        g = random_connected(rng, spec["n"], spec["m"], weighted=True)
        add("edgelist", g, "cg",
            input=_write(workdir, "graph.edges", g.edgelist_text()))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    np.savez(workdir / "reference.npz", **refs)
    _write(workdir, "members.json", json.dumps(members))


# -------------------------------------------------------------------- checks

def read_binary_array(path: Path) -> np.ndarray:
    """Read one array written by the binary export (16-byte header: magic,
    rows, cols, flags; then row-major little-endian float64)."""
    blob = path.read_bytes()
    magic, rows, cols, _ = struct.unpack("<4sIII", blob[:16])
    if magic != b"RESE" or len(blob) != 16 + 8 * rows * cols:
        raise ValueError(f"{path.name}: not a binary feature array")
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape(rows, cols)


def read_binary_export(out_dir: Path, families) -> dict:
    arrays = {"edge_index": read_binary_array(out_dir / "edge_index.bin")}
    for name in families:
        arr = read_binary_array(out_dir / f"{name}.bin")
        arrays[name] = arr[:, 0] if name == "edge_er" else arr
    return arrays


def check_sketch(out: dict, ref: dict) -> str | None:
    """Sampled edge resistances, and commute times over 2M, within the
    README's (1 +- 3 eps) of the reference."""
    er, ht = out["edge_er"], out["edge_ht"]
    if er.shape != (int(ref["m"]),) or ht.shape != (int(ref["m"]), 2):
        return f"shapes {er.shape}, {ht.shape} for {int(ref['m'])} edges"
    if not np.array_equal(out["edge_index"][ref["pos"]], ref["pairs"]):
        return "edge order differs from the input"
    lo, hi = (1 - 3 * EPSILON) * ref["res"], (1 + 3 * EPSILON) * ref["res"]
    for label, est in (("resistance", er[ref["pos"]]),
                       ("commute/2M", ht[ref["pos"]].sum(axis=1)
                        / (2 * ref["mass"]))):
        bad = ~((est >= lo) & (est <= hi))
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            return (f"{label} {est[j]:.6g} outside (1 +- 3eps) of reference "
                    f"{ref['res'][j]:.6g} on edge {ref['pairs'][j].tolist()}")
    return None


def check_exact(out: dict, ref: dict) -> str | None:
    """Every edge's resistance and hitting times within 1e-8 relative."""
    if not np.array_equal(out["edge_index"], ref["pairs"]):
        return "edge order differs from the input"
    for name, want in (("edge_er", ref["er"]), ("edge_ht", ref["ht"])):
        got = out[name]
        if got.shape != want.shape:
            return f"{name} shape {got.shape}, expected {want.shape}"
        err = np.abs(got - want) / np.abs(want)
        if not np.all(err <= EXACT_RTOL):
            return f"{name} relative error {float(np.max(err)):.3e}"
    return None


def refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """True when each class of ``fine`` lies inside one class of ``coarse``."""
    pairs = np.unique(np.column_stack([fine, coarse]), axis=0)
    return np.unique(pairs[:, 0]).size == pairs.shape[0]


def check_round_trip(features, loaded) -> str | None:
    """Bit-exact equality of every array and the manifest."""
    if loaded.manifest != features.manifest:
        return "manifest differs after the round trip"
    want = {"edge_index": features.edge_index, **features.family_arrays()}
    got = {"edge_index": loaded.edge_index, **loaded.family_arrays()}
    for name, arr in want.items():
        other = got.get(name)
        if other is None or other.shape != arr.shape or (
                np.ascontiguousarray(other, dtype=np.float64).tobytes()
                != np.ascontiguousarray(arr, dtype=np.float64).tobytes()):
            return f"{name} is not bit-exact after the round trip"
    return None


# ---------------------------------------------------------------------- jobs

@dataclass
class Job:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not."""

    member: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def load_jobs(workload: str, af, workdir: Path) -> list[Job]:
    """Build the workload's jobs over the inputs ``prepare`` wrote."""
    members = json.loads((workdir / "members.json").read_text())
    refs: dict[str, dict] = {}
    with np.load(workdir / "reference.npz") as data:
        for key in data.files:
            member, field = key.split(".", 1)
            refs.setdefault(member, {})[field] = data[key]
    texts = (workdir / "molecules.jsonl").read_text().splitlines() \
        if workload == "molecules_exact" else None
    maker = {"expander_sketch": _expander_job,
             "illcond_sketch": _illcond_job,
             "molecules_exact": _molecule_job,
             "text_io": _text_io_job}[workload]
    jobs = []
    for member in members:
        name = member["member"]
        source = texts[member["line"]] if texts else \
            str(workdir / member["input"])
        jobs.append(maker(af, name, source, member["sketch_seed"], refs[name],
                          workdir / "out" / name))
    return jobs


def _expander_job(af, name, path, seed, ref, out_dir) -> Job:
    def run():
        graph = af.graph.load_graph(path)
        features = af.features.assemble_features(
            graph, ALL_FAMILIES, epsilon=EPSILON, seed=seed)
        features = af.features.augment_with_rotation(features, seed + 1)
        af.features.export_features(features, "binary", out_dir)
        return out_dir

    def check(result):
        out = read_binary_export(result, ALL_FAMILIES)
        problem = check_sketch(out, ref)
        if problem is None:
            # rotation keeps norms: |rotated edge embedding row|^2 = resistance
            norms = np.einsum("ij,ij->i", out["edge_embedding"],
                              out["edge_embedding"])
            if not np.allclose(norms, out["edge_er"], rtol=1e-8, atol=0.0):
                problem = "rotated edge embedding norms differ from edge_er"
        return problem

    return Job(name, run, check)


def _illcond_job(af, name, path, seed, ref, out_dir) -> Job:
    def run():
        graph = af.graph.load_graph(path)
        features = af.features.assemble_features(
            graph, ["edge_er", "edge_ht"], epsilon=EPSILON, seed=seed)
        return {"edge_index": features.edge_index,
                "edge_er": features.edge_er, "edge_ht": features.edge_ht}

    return Job(name, run, lambda out: check_sketch(out, ref))


def _molecule_job(af, name, text, seed, ref, out_dir) -> Job:
    families = ("edge_er", "edge_ht", "node_embedding")

    def run():
        graph = af.graph.graph_from_json(text)
        features = af.features.assemble_features(graph, families)
        report = af.wl.expressivity_report(graph)
        af.features.export_features(features, "binary", out_dir)
        return report

    def check(report):
        problem = check_exact(read_binary_export(out_dir, families), ref)
        plain = report["plain"].node_colors
        for variant in ("er", "ht", "embedding"):
            if problem is None and not refines(report[variant].node_colors,
                                               plain):
                problem = f"{variant} refinement does not refine plain"
        return problem

    return Job(name, run, check)


def _text_io_job(af, name, path, seed, ref, out_dir) -> Job:
    def run():
        graph = af.graph.load_graph(path)
        features = af.features.assemble_features(
            graph, ALL_FAMILIES, epsilon=EPSILON, seed=seed)
        loaded = {}
        for fmt in ("csv", "json"):
            af.features.export_features(features, fmt, out_dir / fmt)
            loaded[fmt] = af.features.load_features(out_dir / fmt, fmt)
        return features, loaded

    def check(result):
        features, loaded = result
        problem = check_sketch({"edge_index": features.edge_index,
                                "edge_er": features.edge_er,
                                "edge_ht": features.edge_ht}, ref)
        for fmt, back in loaded.items():
            mismatch = check_round_trip(features, back)
            if problem is None and mismatch:
                problem = f"{fmt}: {mismatch}"
        return problem

    return Job(name, run, check)
