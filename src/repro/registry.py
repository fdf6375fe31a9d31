"""Unified component registry: one catalog for every pluggable part.

Prefetchers, replacement policies, workload suites and feature sets are
all declared the same way — a :func:`register` decorator at the point of
definition — and instantiated the same way — :func:`create` by
``(kind, name)``.  The CLI, the harness figures, the suite runner and
the examples therefore resolve components through a single code path,
and adding a new component never requires touching a hand-maintained
dict in another module.

    @register("prefetcher", "my-scheme")
    class MyScheme(Prefetcher):
        name = "my-scheme"

    create("prefetcher", "my-scheme")   # -> MyScheme()
    names("prefetcher")                 # -> [..., "my-scheme", ...]

Unknown names raise :class:`UnknownComponentError` whose message lists
the sorted known names for that kind, so a typo on the command line is
self-diagnosing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping

Factory = Callable[..., Any]

#: kind -> name -> factory.  Populated by module import side effects:
#: importing ``repro`` (or any subpackage defining components) fills it.
_REGISTRY: Dict[str, Dict[str, Factory]] = {}


class UnknownComponentError(KeyError, ValueError):
    """Lookup of an unregistered component (or kind).

    Subclasses both :class:`KeyError` and :class:`ValueError` so legacy
    call sites that caught either keep working.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


def register(kind: str, name: str, factory: Factory | None = None) -> Callable[[Factory], Factory]:
    """Register ``factory`` under ``(kind, name)``; usable as a decorator.

    Re-registering the same name replaces the previous factory (last one
    wins), which keeps repeated imports and test monkey-patching benign.
    """

    def _record(fn: Factory) -> Factory:
        _REGISTRY.setdefault(kind, {})[name] = fn
        return fn

    if factory is not None:
        return _record(factory)
    return _record


def unregister(kind: str, name: str) -> None:
    """Remove one registration (primarily for tests)."""
    catalog = _REGISTRY.get(kind)
    if catalog:
        catalog.pop(name, None)


def get(kind: str, name: str) -> Factory:
    """The factory registered under ``(kind, name)``."""
    try:
        catalog = _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownComponentError(
            f"unknown component kind {kind!r}; known kinds: {known}"
        ) from None
    try:
        return catalog[name]
    except KeyError:
        known = ", ".join(sorted(catalog))
        raise UnknownComponentError(
            f"unknown {kind} {name!r}; known {kind}s: {known}"
        ) from None


def create(kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
    """Instantiate a registered component by name."""
    return get(kind, name)(*args, **kwargs)


def names(kind: str) -> List[str]:
    """Sorted names registered under ``kind`` (empty if none)."""
    return sorted(_REGISTRY.get(kind, {}))


def kinds() -> List[str]:
    """Sorted component kinds with at least one registration."""
    return sorted(kind for kind, catalog in _REGISTRY.items() if catalog)


class RegistryView(Mapping):
    """A live, read-only mapping over one kind's catalog.

    ``name in view``, ``sorted(view)`` and ``view[name]`` read the
    registry at call time, so the registry stays the single source of
    truth.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind

    def __getitem__(self, name: str) -> Factory:
        return get(self._kind, name)

    def __iter__(self) -> Iterator[str]:
        return iter(names(self._kind))

    def __len__(self) -> int:
        return len(_REGISTRY.get(self._kind, {}))

    def __repr__(self) -> str:
        return f"RegistryView({self._kind!r}: {names(self._kind)})"


def view(kind: str) -> RegistryView:
    """A live mapping view of one kind (see :class:`RegistryView`)."""
    return RegistryView(kind)
