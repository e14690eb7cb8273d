"""Compatibility name for the engine's one-call guard.

The struct-of-arrays engine that used to live here is gone: the one
:class:`~repro.core.engine.EngineCore` calls a batchable policy's
``select`` once per instant itself.  This module stays importable, and
keeps :func:`driver_is_batchable`, because tools written against the old
layout (benchmark harnesses that count engine work) still import it from
here.  New code imports it from :mod:`repro.policies.base`.
"""

from repro.policies.base import driver_is_batchable

__all__ = ["driver_is_batchable"]
