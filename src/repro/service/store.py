"""Cross-request shared result store.

:class:`SharedResultStore` is defined beside
:class:`~repro.experiments.sweep.ResultCache` in
:mod:`repro.experiments.sweep`, because the sweep engine uses the same
store; this module names it for the service.  One store instance
(optionally disk-backed) serves every job the manager runs, and two
server instances pointed at the same ``store_dir`` serve each other's
results bit-identically (property-tested in
``tests/test_service_store.py``).
"""

from __future__ import annotations

from repro.experiments.sweep import SharedResultStore

__all__ = ["SharedResultStore"]
