"""BGP routes and their attributes.

A :class:`Route` carries every attribute the BGP-4 decision process
consults (Section 3 of the paper: "the decision procedure is lexicographic,
beginning with the local preference attribute and proceeding down a chain of
tie-breakers").  Routes are immutable value objects; policy produces new
routes via :meth:`Route.replace`-style evolution rather than mutation.

The *null route* ⊥ (Section 3.1) is modeled by :data:`NULL_ROUTE`, a
distinguished singleton that is "always available" to an elector and that
promises may rank above real routes to express never-export semantics.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Tuple, Union

from .communities import Community, encode_community, format_community
from .prefix import Prefix, _INTERNED as _PREFIX_CACHE

#: Default LOCAL_PREF when policy assigns none (Cisco/Quagga convention).
DEFAULT_LOCAL_PREF = 100


class Origin(enum.IntEnum):
    """BGP ORIGIN attribute; lower is preferred."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


#: The byte layout of a route, shared by both directions: prefix
#: (address u32 | length u8), path length u8, the AS path (u32 each), then
#: the fixed attribute tail (local_pref i32 | med u32 | origin u8 |
#: router_id u32 | comm_count u16) and the communities (u16 | u16 each,
#: sorted).  Decode reads the tail with ``_ROUTE_TAIL`` and a path with
#: its per-length struct (cached — path lengths in real tables cluster
#: under a few dozen values); encode packs everything up to the
#: communities with one struct per path length, cached the same way.
#: Also here: the Origin lookup that skips ``EnumMeta.__call__``
#: dispatch, and the shared empty community set (most routes carry
#: none).
_TAIL_FORMAT = "iIBIH"
_ROUTE_TAIL = struct.Struct(">" + _TAIL_FORMAT)
_PATH_STRUCTS: Dict[int, struct.Struct] = {}
_ROUTE_STRUCTS: Dict[int, struct.Struct] = {}
_ORIGIN_BY_CODE: Tuple[Origin, ...] = tuple(
    Origin(code) for code in sorted(o.value for o in Origin))
_EMPTY_COMMUNITIES: FrozenSet[Community] = frozenset()


class NullRoute:
    """The null route ⊥: always available, exportable as a refusal.

    A singleton; compare with ``is`` or ``==`` (both work).  It never has
    attributes — asking for them is a bug, so attribute access raises.
    """

    _instance: Optional["NullRoute"] = None

    def __new__(cls) -> "NullRoute":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __bool__(self) -> bool:
        return False

    def to_bytes(self) -> bytes:
        return b"\x00NULL"


NULL_ROUTE = NullRoute()


@dataclass(frozen=True, slots=True)
class Route:
    """A concrete BGP route to ``prefix`` as seen by one AS.

    ``neighbor`` is the AS the route was learned from (0 for locally
    originated routes); it doubles as the next-hop identifier at the AS
    level of abstraction.  ``local_pref`` is the value assigned by the
    *receiving* AS's import policy and is not propagated on eBGP export.
    """

    prefix: Prefix
    as_path: Tuple[int, ...]
    neighbor: int = 0
    local_pref: int = DEFAULT_LOCAL_PREF
    med: int = 0
    origin: Origin = Origin.IGP
    communities: FrozenSet[Community] = field(default_factory=frozenset)
    #: Tie-break of last resort, standing in for the neighbor router ID.
    router_id: int = 0

    def __post_init__(self) -> None:
        if len(set(self.as_path)) != len(self.as_path):
            raise ValueError(f"AS path {self.as_path} contains a loop")

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    @property
    def origin_as(self) -> Optional[int]:
        """The AS that originated the prefix (last on the path)."""
        return self.as_path[-1] if self.as_path else None

    def traverses(self, asn: int) -> bool:
        return asn in self.as_path

    def with_communities(self, *tags: Community) -> "Route":
        return replace(self, communities=self.communities.union(tags))

    def without_communities(self, *tags: Community) -> "Route":
        return replace(self,
                       communities=self.communities.difference(tags))

    def with_local_pref(self, value: int) -> "Route":
        return replace(self, local_pref=value)

    def prepended(self, asn: int) -> "Route":
        """The route as exported by ``asn``: path grows, local attrs reset.

        LOCAL_PREF is non-transitive and MED is reset across AS boundaries
        (we model the common reset-on-export behaviour).
        """
        if asn in self.as_path:
            raise ValueError(f"prepending AS {asn} would create a loop")
        return replace(self, as_path=(asn,) + self.as_path,
                       local_pref=DEFAULT_LOCAL_PREF, med=0)

    def to_bytes(self) -> bytes:
        """Canonical encoding, stable across processes, used for signing.

        Layout: prefix(5) | path_len(1) path(4*n) | local_pref(4) | med(4)
        | origin(1) | router_id(4) | comm_count(2) comms(4*m, sorted).
        Encode and decode share this one layout (``_TAIL_FORMAT`` and
        the notes above it): everything before the communities is one
        ``pack`` of the struct for this path length.  A path of 256
        hops or more raises ``ValueError`` and a field out of its range
        raises ``OverflowError``, as the byte-by-byte encoder did;
        ``struct.error`` never escapes.
        """
        path = self.as_path
        n_path = len(path)
        layout = _ROUTE_STRUCTS.get(n_path)
        if layout is None:
            if n_path > 255:
                raise ValueError(f"AS path of {n_path} hops does not fit "
                                 f"its one-byte length")
            layout = struct.Struct(f">IBB{n_path}I{_TAIL_FORMAT}")
            _ROUTE_STRUCTS[n_path] = layout
        prefix = self.prefix
        communities = self.communities
        try:
            head = layout.pack(prefix.address, prefix.length, n_path, *path,
                               self.local_pref, self.med, self.origin,
                               self.router_id, len(communities))
        except struct.error as exc:
            raise OverflowError(f"route field out of range: {exc}") \
                from None
        if not communities:
            return head
        return head + b"".join(map(encode_community, sorted(communities)))

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray, memoryview],
                   neighbor: int = 0) -> "Route":
        """Inverse of :meth:`to_bytes` (``neighbor`` is receiver-local).

        This is the runtime codec's hot path, so it parses with
        pre-compiled :class:`struct.Struct` instances over whatever
        buffer it is handed (bytes or a zero-copy memoryview window)
        and builds the instance via ``__new__`` plus direct slot
        writes — the generated frozen-dataclass ``__init__`` spends
        one ``object.__setattr__`` dispatch per field, which at
        hundreds of thousands of routes per second is most of the
        decode budget.  Every ``__post_init__`` invariant is enforced
        inline (the AS-path loop check below; prefix validation happens
        inside :meth:`Prefix.from_bytes`).
        """
        size = len(data)
        # Bounds-check before reading: a truncated encoding must fail as
        # ValueError (which the codec maps to CodecError), never as an
        # IndexError from indexing past the end, never as struct.error,
        # and never by letting a short slice silently decode as a
        # smaller integer.
        if size < 6:
            raise ValueError("route encoding too short")
        # Inlined fast path of :meth:`Prefix.from_bytes`: one dict probe
        # against the intern table; only a miss pays the classmethod
        # call (which validates, then populates the table).
        key = bytes(data[:5])
        prefix = _PREFIX_CACHE.get(key)
        if prefix is None:
            prefix = Prefix.from_bytes(key)
        n_path = data[5]
        tail = 6 + 4 * n_path
        if size < tail + 15:
            raise ValueError("route encoding truncated")
        if n_path:
            path_struct = _PATH_STRUCTS.get(n_path)
            if path_struct is None:
                path_struct = struct.Struct(f">{n_path}I")
                _PATH_STRUCTS[n_path] = path_struct
            path = path_struct.unpack_from(data, 6)
            # Loop check (the __post_init__ invariant): a single-hop
            # path cannot repeat, a two-hop path needs one compare, and
            # only longer paths pay for a set build.
            if n_path > 2:
                if len(set(path)) != n_path:
                    raise ValueError(f"AS path {path} contains a loop")
            elif n_path == 2 and path[0] == path[1]:
                raise ValueError(f"AS path {path} contains a loop")
        else:
            path = ()
        local_pref, med, origin_code, router_id, n_comm = \
            _ROUTE_TAIL.unpack_from(data, tail)
        if origin_code >= len(_ORIGIN_BY_CODE):
            raise ValueError(f"{origin_code} is not a valid Origin")
        origin = _ORIGIN_BY_CODE[origin_code]
        pos = tail + 15
        end = pos + 4 * n_comm
        if size < end:
            raise ValueError("route encoding truncated")
        if size != end:
            raise ValueError("trailing bytes in route encoding")
        if n_comm:
            tags = [(int.from_bytes(data[pos + 4 * i:pos + 4 * i + 2],
                                    "big"),
                     int.from_bytes(data[pos + 4 * i + 2:pos + 4 * i + 4],
                                    "big"))
                    for i in range(n_comm)]
            # to_bytes writes the set sorted: anything else (a repeat,
            # a swapped pair) is a second encoding of the same route.
            if any(a >= b for a, b in zip(tags, tags[1:])):
                raise ValueError("communities not in strictly ascending "
                                 "order")
            comms = frozenset(tags)
        else:
            comms = _EMPTY_COMMUNITIES
        route = cls.__new__(cls)
        _set_prefix(route, prefix)
        _set_as_path(route, path)
        _set_neighbor(route, neighbor)
        _set_local_pref(route, local_pref)
        _set_med(route, med)
        _set_origin(route, origin)
        _set_communities(route, comms)
        _set_router_id(route, router_id)
        return route

    def __str__(self) -> str:
        path = " ".join(str(a) for a in self.as_path) or "local"
        comms = ",".join(format_community(c)
                         for c in sorted(self.communities))
        extra = f" [{comms}]" if comms else ""
        return (f"{self.prefix} via {path} "
                f"(lp={self.local_pref}){extra}")


#: Bound slot descriptors for the decode fast path.  The frozen
#: dataclass blocks ``setattr`` but the slots' member descriptors write
#: directly, skipping both the frozen-``__setattr__`` override and the
#: per-call attribute-name hashing of ``object.__setattr__`` — roughly
#: 2.5x cheaper per field.  Looked up once here so a field rename or
#: reorder fails at import time, not silently at decode time.
_set_prefix = Route.__dict__["prefix"].__set__
_set_as_path = Route.__dict__["as_path"].__set__
_set_neighbor = Route.__dict__["neighbor"].__set__
_set_local_pref = Route.__dict__["local_pref"].__set__
_set_med = Route.__dict__["med"].__set__
_set_origin = Route.__dict__["origin"].__set__
_set_communities = Route.__dict__["communities"].__set__
_set_router_id = Route.__dict__["router_id"].__set__


def originate(prefix: Prefix, asn: int) -> Route:
    """A locally originated route, as it appears in the originator's RIB."""
    return Route(prefix=prefix, as_path=(asn,), neighbor=0,
                 origin=Origin.IGP)
