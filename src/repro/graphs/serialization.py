"""JSON (de)serialization of DFGs.

Workloads are plain data; persisting them lets experiments pin exact
graphs and lets users exchange workloads between machines.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.graphs.dfg import DFG, KernelSpec

_FORMAT_VERSION = 1


def dfg_to_dict(dfg: DFG) -> dict[str, object]:
    """A JSON-safe dict representation of a DFG."""
    return {
        "version": _FORMAT_VERSION,
        "name": dfg.name,
        "kernels": [
            {"id": kid, "kernel": dfg.spec(kid).kernel, "data_size": dfg.spec(kid).data_size}
            for kid in dfg.kernel_ids()
        ],
        "dependencies": [[u, v] for u, v in dfg.edges()],
    }


def dfg_from_dict(data: dict[str, object]) -> DFG:
    """Inverse of :func:`dfg_to_dict`; validates the structure."""
    version = data.get("version", _FORMAT_VERSION)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported DFG format version {version}")
    dfg = DFG(str(data.get("name", "dfg")))
    kernels = data.get("kernels")
    if not isinstance(kernels, list):
        raise ValueError("missing or malformed 'kernels' list")
    for item in kernels:
        dfg.add_kernel(
            KernelSpec(str(item["kernel"]), int(item["data_size"])), kid=int(item["id"])
        )
    # one bulk insertion: a single Kahn pass whatever order the edges
    # are listed in (per-edge probes are quadratic on a reversed chain)
    dfg.add_dependencies(
        (int(edge[0]), int(edge[1]))
        for edge in data.get("dependencies", [])  # type: ignore[union-attr]
    )
    return dfg


def save_dfg(dfg: DFG, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dfg_to_dict(dfg), fh, indent=2)


def load_dfg(path: str | Path) -> DFG:
    with open(path, "r", encoding="utf-8") as fh:
        return dfg_from_dict(json.load(fh))
