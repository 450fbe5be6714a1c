"""Stable content fingerprints for scenario configurations and code.

The orchestrator's correctness rests on one property: a fingerprint is a
pure function of *everything that can move a result byte*.  Two halves:

* :func:`fingerprint_config` hashes a :class:`ScenarioConfig` (or any
  dataclass tree) into a stable hex digest.  Canonicalization walks the
  dataclass recursively — field names, fully qualified class names (the
  fault schedule is polymorphic), deterministic float rendering, sorted
  dicts — and refuses anything it cannot make stable, so an unstable
  config field is a loud ``TypeError`` instead of a silent cache
  collision.  :class:`~repro.core.config.InvariantConfig`'s ``auto`` mode
  resolves through the ``REPRO_INVARIANTS`` environment variable at run
  time, so it is resolved *before* hashing — a strict-mode run never
  shares a cache entry with an observe-mode run.

* :func:`code_fingerprint` hashes the source of the ``repro`` package
  itself.  The on-disk cache namespaces entries by
  ``v<schema>-<code digest>`` (:func:`cache_namespace`), so any code
  change — a new field default, a fixed bug, a modelling tweak —
  invalidates every stale entry wholesale rather than risking a result
  computed by old code masquerading as fresh.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from functools import lru_cache
from pathlib import Path

__all__ = [
    "CACHE_SCHEMA_VERSION", "canonicalize", "fingerprint_config",
    "code_fingerprint", "cache_namespace",
]

#: Bump when the artifact schema or canonicalization rules change; old
#: cache namespaces become unreachable (and ``repro cache clear`` removable).
CACHE_SCHEMA_VERSION = 1


def _canonical_float(value: float) -> object:
    """Floats render via ``repr`` (shortest round-trip form, stable across
    platforms for IEEE doubles); integral floats collapse to ints so
    ``7`` and ``7.0`` — equal in every arithmetic the config feeds — hash
    identically."""
    if value != value or value in (float("inf"), float("-inf")):
        return repr(value)
    if float(value).is_integer():
        return int(value)
    return repr(value)


def canonicalize(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serializable tree with deterministic order.

    Supports dataclasses (by field), mappings (key-sorted), sequences,
    sets (element-sorted), enums, and scalars.  Anything else raises
    ``TypeError`` — an unstable value must never be silently folded into
    a fingerprint.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        # The ``auto`` invariant mode is an env-var indirection
        # (REPRO_INVARIANTS): resolve it so the fingerprint captures the
        # behaviour, not the indirection.
        resolve = getattr(obj, "resolve_mode", None)
        if "mode" in fields and callable(resolve):
            fields["mode"] = resolve()
        return {
            "__class__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": fields,
        }
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__module__}.{type(obj).__qualname__}",
                "name": obj.name}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _canonical_float(obj)
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, dict):
        return {"__dict__": [
            [canonicalize(k), canonicalize(v)]
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        ]}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted((canonicalize(i) for i in obj), key=repr)}
    raise TypeError(
        f"cannot canonicalize {type(obj).__qualname__!r} for fingerprinting; "
        "add a stable representation before caching on it"
    )


def fingerprint_config(config: object) -> str:
    """A stable SHA-256 content hash of a configuration object."""
    payload = json.dumps(canonicalize(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package.

    Computed once per process (the package does not change under a running
    interpreter).  Ordering is by package-relative path, so the digest is
    independent of filesystem iteration order.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cache_namespace() -> str:
    """The cache directory name current code writes to and reads from."""
    return f"v{CACHE_SCHEMA_VERSION}-{code_fingerprint()[:16]}"
