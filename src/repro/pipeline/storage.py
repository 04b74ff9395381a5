"""Permanent storage of workflow results (the last box of Fig. 2).

The paper's pipeline streams filtered results "toward the user interface
and permanent storage".  This module implements the storage half with
plain, dependency-free formats:

* cut statistics -> CSV (one row per cut, mean/var/min/max/median per
  observable);
* sweep summaries -> a columnar directory store: one ``.npy`` file per
  (observable, statistic) holding a ``(point, cut)`` matrix, loaded
  back memory-mapped so terabyte sweeps are minable without reading
  (or re-running) anything but the touched rows.

Everything written can be read back (:func:`load_cut_statistics`,
:func:`load_sweep_store`), so long runs can be mined off-line.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.stats import CutStatistics
from repro.pipeline.builder import WorkflowResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.sweep.runner import SweepResult


def save_cut_statistics(result: WorkflowResult, path: "str | Path",
                        observable_names: Sequence[str] | None = None
                        ) -> Path:
    """Write one CSV row per cut; returns the path written."""
    path = Path(path)
    stats = result.cut_statistics()
    n_observables = len(stats[0].mean) if stats else 0
    names = list(observable_names) if observable_names else [
        f"obs{i}" for i in range(n_observables)]
    if len(names) != n_observables:
        raise ValueError(
            f"{len(names)} names for {n_observables} observables")
    header = ["grid_index", "time", "n_trajectories"]
    for name in names:
        header += [f"{name}_mean", f"{name}_var", f"{name}_min",
                   f"{name}_max", f"{name}_median"]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for cut in stats:
            row: list = [cut.grid_index, cut.time, cut.n_trajectories]
            for i in range(n_observables):
                row += [cut.mean[i], cut.variance[i], cut.minimum[i],
                        cut.maximum[i], cut.median[i]]
            writer.writerow(row)
    return path


def load_cut_statistics(path: "str | Path") -> list[CutStatistics]:
    """Read back a :func:`save_cut_statistics` file."""
    path = Path(path)
    out: list[CutStatistics] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        n_observables = (len(header) - 3) // 5
        for row in reader:
            values = [float(x) for x in row]
            means, variances, mins, maxs, medians = [], [], [], [], []
            for i in range(n_observables):
                base = 3 + 5 * i
                means.append(values[base])
                variances.append(values[base + 1])
                mins.append(values[base + 2])
                maxs.append(values[base + 3])
                medians.append(values[base + 4])
            out.append(CutStatistics(
                grid_index=int(values[0]), time=values[1],
                n_trajectories=int(values[2]),
                mean=tuple(means), variance=tuple(variances),
                minimum=tuple(mins), maximum=tuple(maxs),
                median=tuple(medians)))
    return out


#: versioned layout marker of the sweep store directory format
SWEEP_STORE_FORMAT = 1


def _sweep_file(name: str, stat: str) -> str:
    """File name of one observable's statistic matrix; observable names
    are sanitised so any model naming survives the filesystem."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
    return f"{safe}__{stat}.npy"


def save_sweep_store(result: "SweepResult", path: "str | Path") -> Path:
    """Persist a sweep as a mmap-able columnar directory.

    Layout: ``manifest.json`` (format version, the sweep spec, the
    observable names and their file names), ``times.npy`` (the shared
    sampling grid) and one ``<observable>__<stat>.npy`` per observable
    and statistic (``mean`` / ``variance``), each a C-contiguous
    ``(point, cut)`` float64 matrix.  ``.npy`` keeps the store
    dependency-free while :func:`np.load(..., mmap_mode="r") <numpy.load>`
    gives readers zero-copy row access.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict[str, str]] = {}
    for i, name in enumerate(result.observable_names):
        entry = {}
        for stat in ("mean", "variance"):
            filename = _sweep_file(name, stat)
            if filename in {f for obs in files.values()
                            for f in obs.values()}:
                raise ValueError(
                    f"observable names collide after sanitising: {name!r}")
            np.save(path / filename, np.ascontiguousarray(
                result.point_matrix(i, stat), dtype=np.float64))
            entry[stat] = filename
        files[name] = entry
    np.save(path / "times.npy", np.asarray(result.times, dtype=np.float64))
    manifest = {
        "format": SWEEP_STORE_FORMAT,
        "spec": result.spec.to_dict(),
        "observables": list(result.observable_names),
        "files": files,
        "n_points": result.n_points,
        "n_cuts": result.n_cuts,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return path


class SweepStore:
    """Read view of a :func:`save_sweep_store` directory.

    Matrices are memory-mapped read-only on first access: opening a
    store touches only the manifest, and reading one point's row of one
    observable pages in just that row.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        manifest = json.loads((self.path / "manifest.json").read_text())
        if manifest.get("format") != SWEEP_STORE_FORMAT:
            raise ValueError(
                f"unsupported sweep store format "
                f"{manifest.get('format')!r} at {self.path}")
        self.manifest = manifest
        self.observables: list[str] = list(manifest["observables"])
        self.n_points: int = manifest["n_points"]
        self.n_cuts: int = manifest["n_cuts"]
        self._arrays: dict[tuple[str, str], np.ndarray] = {}
        self._times: "np.ndarray | None" = None

    @property
    def times(self) -> np.ndarray:
        if self._times is None:
            self._times = np.load(self.path / "times.npy", mmap_mode="r")
        return self._times

    def spec_dict(self) -> dict:
        return self.manifest["spec"]

    def matrix(self, observable: str, stat: str = "mean") -> np.ndarray:
        """The memory-mapped ``(point, cut)`` matrix of one observable."""
        key = (observable, stat)
        if key not in self._arrays:
            filename = self.manifest["files"][observable][stat]
            self._arrays[key] = np.load(self.path / filename, mmap_mode="r")
        return self._arrays[key]

    def point(self, index: int, observable: str,
              stat: str = "mean") -> np.ndarray:
        """One sweep point's trajectory summary (a ``(cut,)`` row)."""
        return self.matrix(observable, stat)[index]


def load_sweep_store(path: "str | Path") -> SweepStore:
    """Open a sweep store directory for memory-mapped reading."""
    return SweepStore(path)
