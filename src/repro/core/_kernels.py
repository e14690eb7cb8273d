"""Optional compiled kernels for the array backend (``REPRO_JIT``).

The array backend's hottest inner function — the batched CSR readiness
propagation, identified by the phase profiler (:mod:`repro.profiling`)
— lives here in two twin forms:

* a **pure-numpy fallback** (``<name>_py``), always available, and
* a **jit source** (``_<name>_src``), a plain-Python loop nest written
  in numba's compilable subset and wrapped with ``numba.njit`` when
  numba is importable.

Both twins of a kernel implement the *same* deterministic algorithm
(no ``fastmath``), so schedules are bit-for-bit equal whichever twin
runs — pinned by ``tests/test_jit_kernels.py`` (which differential-tests
the twins directly, numba or not, since the jit source is plain Python)
and end-to-end by the equivalence suite and the differential fuzzer.

Selection: ``resolve_jit`` maps the ``REPRO_JIT`` environment variable /
``Simulator(jit=...)`` to a boolean.  ``"1"/"on"`` *requests* jit but
still degrades gracefully to the fallback when numba is absent (this
container policy: never hard-fail on a missing optional dependency);
``"0"/"off"`` forces the fallback; unset / ``"auto"`` uses numba iff
importable.

The pairwise registry :data:`KERNELS` is the contract the checks rule
(``JitKernelPairRule``) and the fixture test enforce: every kernel name
maps to its ``(<name>_py, _<name>_src)`` twins, and no jit source may
exist outside the registry.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

#: environment override consulted when no explicit ``jit=`` is given.
JIT_ENV_VAR = "REPRO_JIT"

_FALSEY = ("0", "off", "false", "no")
_TRUEY = ("1", "on", "true", "yes")


def numba_available() -> bool:
    """Whether numba is importable (cached after the first probe)."""
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401

            _NUMBA_OK = True
        except Exception:
            _NUMBA_OK = False
    return _NUMBA_OK


_NUMBA_OK: bool | None = None


def resolve_jit(jit: "str | bool | None" = None) -> bool:
    """Normalize a jit selector to the *active* state.

    ``None`` consults ``REPRO_JIT``; an unset variable means ``"auto"``.
    Requesting jit without numba falls back silently — the fallback is
    bit-identical, so the only difference is speed.
    """
    if jit is None:
        jit = os.environ.get(JIT_ENV_VAR) or "auto"
    if isinstance(jit, bool):
        return jit and numba_available()
    s = str(jit).strip().lower()
    if s in _FALSEY:
        return False
    if s in _TRUEY or s == "auto":
        return numba_available()
    raise ValueError(
        f"unknown jit selector {jit!r} (use on/off/auto, 1/0, or a bool)"
    )


def jit_status(jit: "str | bool | None" = None) -> dict[str, object]:
    """Introspection payload for ``--profile`` and the service ``/stats``."""
    requested = os.environ.get(JIT_ENV_VAR) or "auto" if jit is None else jit
    return {
        "requested": requested,
        "numba_available": numba_available(),
        "active": resolve_jit(jit),
    }


# ----------------------------------------------------------------------
# csr_propagate — batched successor ready-propagation (epoch completion)
# ----------------------------------------------------------------------
def csr_propagate_py(rp: np.ndarray, succs: np.ndarray) -> np.ndarray:
    """Decrement ``rp`` at each successor; return the ids hitting zero.

    ``succs`` is the epoch's successor lists concatenated in record
    order; each occurrence is one predecessor completing.  A successor
    reaches zero exactly at its last occurrence, so emitting on the
    zero-crossing reproduces the object engine's per-record emission
    order.
    """
    n = succs.shape[0]
    if n < 32:
        out = []
        for s in succs:
            v = rp[s] - 1
            rp[s] = v
            if v == 0:
                out.append(s)
        return np.asarray(out, dtype=succs.dtype)
    np.subtract.at(rp, succs, 1)
    hit = succs[rp[succs] == 0]
    if hit.size <= 1:
        return hit
    # distinct zeros, ordered by their *last* occurrence (= emission order)
    seen: set = set()
    out = []
    for s in hit.tolist()[::-1]:
        if s not in seen:
            seen.add(s)
            out.append(s)
    out.reverse()
    return np.asarray(out, dtype=succs.dtype)


def _csr_propagate_src(rp, succs):
    n = succs.shape[0]
    out = np.empty(n, dtype=succs.dtype)
    k = 0
    for i in range(n):
        s = succs[i]
        v = rp[s] - 1
        rp[s] = v
        if v == 0:
            out[k] = s
            k += 1
    return out[:k]


#: kernel name → (numpy fallback, jit source) twins.  The checks rule
#: and ``tests/test_jit_kernels.py`` enforce this registry is complete
#: and pairwise-consistent.
KERNELS: dict[str, tuple[Callable, Callable]] = {
    "csr_propagate": (csr_propagate_py, _csr_propagate_src),
}


class KernelSet:
    """The resolved kernel namespace an engine binds at construction."""

    __slots__ = ("jit", "csr_propagate")

    def __init__(self, jit: bool, table: dict[str, Callable]) -> None:
        self.jit = jit
        for name, fn in table.items():
            setattr(self, name, fn)


_FALLBACK: KernelSet | None = None
_JITTED: KernelSet | None = None


def get_kernels(jit: bool) -> KernelSet:
    """The kernel set for the resolved jit state (singletons, lazy)."""
    global _FALLBACK, _JITTED
    if not jit:
        if _FALLBACK is None:
            _FALLBACK = KernelSet(False, {n: fns[0] for n, fns in KERNELS.items()})
        return _FALLBACK
    if _JITTED is None:
        try:
            import numba

            # no fastmath: reassociation would break bit-for-bit parity
            _JITTED = KernelSet(
                True,
                {n: numba.njit(cache=False)(fns[1]) for n, fns in KERNELS.items()},
            )
        except Exception:  # pragma: no cover - numba present but broken
            _JITTED = get_kernels(False)
    return _JITTED
