"""Engine-backend registration: kind ``engine-backends``.

An engine backend is the thing that actually simulates one device: a
class constructed as ``cls(config)`` whose instances expose
``launch(apps, partitions)`` and ``run(max_cycles, callbacks)``
returning a ``DeviceResult``.  Every layer above the engine — streams,
fleets, campaign shards — is backend-agnostic;
the backend is selected by name through :data:`~repro.api.registry.REGISTRY`
from ``ExecutionSpec.backend``.

The registry factory returns the engine *class*, not an instance:
engines are constructed per simulation (one device, one group), so the
factory runs once per process and the class is then called as
``cls(config)`` at each simulation site.

The backend contract (see docs/api.md, "Writing a backend"):

* ``cls(config)`` — accept a :class:`~repro.gpusim.GPUConfig`.
* ``launch(apps, partitions=None)`` — stage applications, optional
  explicit SM partition list.
* ``run(max_cycles, callbacks=())`` — simulate and return the same
  ``DeviceResult`` the event engine returns.
* **Bit identity**: results (cycles, per-app stats, event counts) must
  be byte-identical to the event engine for the same inputs, or
  ``ENGINE_VERSION`` must be bumped with goldens re-captured and the
  divergence documented.  ``benchmarks/perf/run_bench.py --ab A:B``
  enforces this before any bench numbers are written.

Like :mod:`repro.api.devices` this module lives on the api side so the
``repro.gpusim`` package itself stays registry-free (bottom layer, no
upward imports).  Imports inside the factories are lazy so listing
backends (``repro list --kind engine-backends``) does not pull in the
native extension build.
"""

from __future__ import annotations

import warnings
from typing import Dict

from repro.api.registry import REGISTRY


@REGISTRY.register("engine-backends", "event")
def _event_engine():
    """The original event-driven engine (the reference semantics)."""
    from repro.gpusim import GPU
    return GPU


@REGISTRY.register("engine-backends", "vector")
def _vector_engine():
    """The compiled C core (:class:`~repro.gpusim.vector.VectorGPU`);
    results bit-identical to the event engine.

    When the core cannot be loaded (no compiler, a failed build,
    ``REPRO_VECTOR_NATIVE=0``) this returns the event engine
    :class:`~repro.gpusim.GPU` instead and issues one ``RuntimeWarning``
    naming the reason.  Results are the same either way, so
    ``provenance.backend`` still records ``vector``.
    """
    from repro.gpusim import GPU, _native
    if _native.load() is None:
        warnings.warn("vector backend: compiled core unavailable "
                      f"({_native.unavailable_reason}); falling back to "
                      "the event engine", RuntimeWarning, stacklevel=3)
        return GPU
    from repro.gpusim.vector import VectorGPU
    return VectorGPU


#: Backend name → engine class, memoized: the factory import runs once
#: per process, after which resolution is a dict hit on the hot path.
_CLASS_CACHE: Dict[str, type] = {}


def engine_class(backend: str) -> type:
    """Resolve a backend name to its engine class (memoized)."""
    try:
        return _CLASS_CACHE[backend]
    except KeyError:
        pass
    cls = REGISTRY.create("engine-backends", backend)
    _CLASS_CACHE[backend] = cls
    return cls
