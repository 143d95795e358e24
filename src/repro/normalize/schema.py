"""Local-to-global attribute matching (schema-level heterogeneity).

Section 2.2: Stock sources expose 333 differently-named *local* attributes
that collapse to 153 *global* attributes after manual matching ("Some of the
attributes have the same semantics but are named differently").  We reproduce
the mechanism with a synonym table plus a normalized-name fallback: the
simulator emits local names drawn from per-attribute synonym pools, and
:class:`SchemaMatcher` maps them back, so Figure 1 (attribute coverage over
global attributes) can be regenerated from local schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchemaError
from repro.normalize.strings import normalize_name


@dataclass
class SchemaMatcher:
    """Maps local attribute names to canonical global attribute names."""

    _synonyms: Dict[str, str] = field(default_factory=dict)
    _globals: Dict[str, str] = field(default_factory=dict)

    def register_global(self, name: str) -> None:
        """Declare a global attribute; its own name always maps to itself."""
        key = normalize_name(name)
        if not key:
            raise SchemaError(f"invalid global attribute name {name!r}")
        existing = self._globals.get(key)
        if existing is not None and existing != name:
            raise SchemaError(
                f"normalized collision between globals {existing!r} and {name!r}"
            )
        self._globals[key] = name
        self._synonyms[key] = name

    def register_synonym(self, local_name: str, global_name: str) -> None:
        """Declare one local spelling of a global attribute."""
        gkey = normalize_name(global_name)
        if gkey not in self._globals:
            raise SchemaError(f"unknown global attribute {global_name!r}")
        lkey = normalize_name(local_name)
        if not lkey:
            raise SchemaError(f"invalid local attribute name {local_name!r}")
        mapped = self._synonyms.get(lkey)
        if mapped is not None and mapped != self._globals[gkey]:
            raise SchemaError(
                f"local name {local_name!r} already maps to {mapped!r}"
            )
        self._synonyms[lkey] = self._globals[gkey]

    def resolve(self, local_name: str) -> Optional[str]:
        """The global attribute for a local name, or ``None`` if unmatched."""
        return self._synonyms.get(normalize_name(local_name))

    def resolve_required(self, local_name: str) -> str:
        resolved = self.resolve(local_name)
        if resolved is None:
            raise SchemaError(f"unmatched local attribute {local_name!r}")
        return resolved

    @property
    def global_names(self) -> List[str]:
        return sorted(set(self._globals.values()))

    def match_schema(self, local_names: Iterable[str]) -> Dict[str, Optional[str]]:
        """Resolve a whole local schema at once."""
        return {name: self.resolve(name) for name in local_names}


def match_statistics(
    matcher: SchemaMatcher, local_schemas: Dict[str, Iterable[str]]
) -> Tuple[int, int]:
    """(#local attributes, #global attributes) across sources, as in Table 1.

    ``local_schemas`` maps source id to its local attribute names.  Local
    attributes are counted as distinct names across all sources (the paper's
    333 for Stock); globals are the distinct resolved targets (153).
    """
    local_names = set()
    global_names = set()
    for names in local_schemas.values():
        for name in names:
            local_names.add(normalize_name(name))
            resolved = matcher.resolve(name)
            if resolved is not None:
                global_names.add(resolved)
    return len(local_names), len(global_names)
