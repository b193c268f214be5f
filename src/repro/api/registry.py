"""The single pluggable registry: kind → name → factory.

Every extensible component family of the reproduction registers here —
batch policies, online policies, placement policies, arrival-stream
builders, benchmark models, named device configurations.  The registry
replaces the three ad-hoc factory dicts that used to live in
``cli.py`` (``POLICY_FACTORIES``), ``runtime.online``
(``ONLINE_POLICY_FACTORIES``) and ``cluster.placement``
(``PLACEMENT_FACTORIES``): one lookup path, one error message, one
``repro list --kind`` view.

Registration is decorator-based, in the module that defines the
component, so downstream code can add a policy or placement without
touching core::

    from repro.api.registry import REGISTRY

    @REGISTRY.register("online-policies", "my-policy")
    def _make_my_policy(nc=2):
        return MyPolicy(nc)

This module is a dependency *leaf*: it imports nothing from the rest of
``repro``, so any layer (core, runtime, cluster, workloads) may import
it without cycles.  The modules that register the built-in components
are imported lazily, on first lookup, through :data:`_BUILTIN_MODULES`.
"""

from __future__ import annotations

import difflib
import importlib
from typing import Callable, Dict, List, Optional

#: Modules whose import registers the built-in components.  Lazy: pulled
#: in on the first registry lookup, never at import time (several of
#: them import this module for their ``@REGISTRY.register`` calls).
_BUILTIN_MODULES = (
    "repro.core.policies",      # kind "policies"
    "repro.runtime.online",     # kind "online-policies"
    "repro.cluster.placement",  # kind "placements"
    "repro.cluster.faults",     # kinds "faults", "admission"
    "repro.workloads.rodinia",  # kind "benchmarks"
    "repro.workloads.streams",  # kind "streams"
    "repro.api.devices",        # kind "gpu-configs"
    "repro.api.engines",        # kind "engine-backends"
    "repro.obs",                # kind "telemetry"
    "repro.campaign.plan",      # kind "shard-strategies"
)

#: The component families the built-in registry serves (documentation
#: order; the registry itself accepts any kind string).
BUILTIN_KINDS = ("benchmarks", "policies", "online-policies",
                 "placements", "streams", "gpu-configs", "faults",
                 "admission", "telemetry", "shard-strategies",
                 "engine-backends")


class RegistryError(ValueError):
    """Unknown kind/name or conflicting registration."""


def _singular(kind: str) -> str:
    """``online-policies`` → ``online-policy`` (error-message grammar)."""
    if kind.endswith("ies"):
        return kind[:-3] + "y"
    if kind.endswith("s"):
        return kind[:-1]
    return kind


class Registry:
    """A two-level factory registry with typo-suggesting lookups."""

    def __init__(self, builtin_modules: tuple = ()):
        self._factories: Dict[str, Dict[str, Callable]] = {}
        self._builtin_modules = tuple(builtin_modules)
        self._loaded = False

    # -- registration ------------------------------------------------------

    def register(self, kind: str, name: str,
                 factory: Optional[Callable] = None):
        """Register `factory` under ``(kind, name)``.

        Usable directly (``register(kind, name, factory)``) or as a
        decorator (``@register(kind, name)``) on a class or function.
        Re-registering an existing name is an error — shadowing a
        built-in silently is exactly the bug class this replaces.
        """
        if not kind or not isinstance(kind, str):
            raise RegistryError(f"registry kind must be a non-empty "
                                f"string, got {kind!r}")
        if not name or not isinstance(name, str):
            raise RegistryError(f"registry name must be a non-empty "
                                f"string, got {name!r}")

        def _add(fn: Callable) -> Callable:
            if not callable(fn):
                raise RegistryError(
                    f"factory for {kind}/{name} must be callable, "
                    f"got {fn!r}")
            family = self._factories.setdefault(kind, {})
            if name in family:
                raise RegistryError(
                    f"{kind} name {name!r} is already registered")
            family[name] = fn
            return fn

        if factory is None:
            return _add
        return _add(factory)

    # -- lookups -----------------------------------------------------------

    def _ensure_builtins(self) -> None:
        if self._loaded:
            return
        # Mark loaded only once every import succeeded: a failing
        # builtin module must keep raising its real ImportError on
        # later lookups, not decay into "unknown registry kind".
        for module in self._builtin_modules:
            importlib.import_module(module)
        self._loaded = True

    def _family(self, kind: str) -> Dict[str, Callable]:
        self._ensure_builtins()
        try:
            return self._factories[kind]
        except KeyError:
            raise RegistryError(
                f"unknown registry kind {kind!r}; expected one of "
                f"{sorted(self._factories)}") from None

    def get(self, kind: str, name: str) -> Callable:
        """The factory registered under ``(kind, name)``.

        An unknown name raises a :class:`RegistryError` naming the
        nearest registered match (``did you mean ...?``) — a typo'd
        policy name should read like a typo, not like a missing feature.
        """
        family = self._family(kind)
        try:
            return family[name]
        except KeyError:
            pass
        hint = ""
        close = difflib.get_close_matches(name, family, n=1, cutoff=0.5)
        if close:
            hint = f"; did you mean {close[0]!r}?"
        raise RegistryError(
            f"unknown {_singular(kind)} {name!r}{hint} "
            f"(registered: {', '.join(sorted(family))})")

    def create(self, kind: str, name: str, *args, **kwargs):
        """Instantiate ``(kind, name)`` — ``get(...)(*args, **kwargs)``."""
        return self.get(kind, name)(*args, **kwargs)

    def names(self, kind: str) -> List[str]:
        """Sorted names registered under `kind`."""
        return sorted(self._family(kind))

    def kinds(self) -> List[str]:
        """Sorted kinds with at least one registration."""
        self._ensure_builtins()
        return sorted(self._factories)

    def __contains__(self, kind_name) -> bool:
        kind, name = kind_name
        self._ensure_builtins()
        return name in self._factories.get(kind, {})


#: The process-wide registry every built-in component registers into.
REGISTRY = Registry(_BUILTIN_MODULES)
