"""IPv4 addresses and networks (tiny, hashable, no stdlib ipaddress).

A dedicated class (rather than :mod:`ipaddress`) keeps packet hot paths
cheap: addresses are interned 32-bit integers with precomputed string
forms.  The intern table is bounded (:data:`INTERN_LIMIT`): past it a
new address is built fresh each time, so packets from or to ever new
addresses cannot grow memory, and equal addresses need not be the same
object.  Compare addresses with ``==`` or ``.value``, never ``is``.
"""

from __future__ import annotations

from typing import Dict, Union

AddressLike = Union["IPv4Address", str, int]

#: most addresses the intern table holds
INTERN_LIMIT = 1 << 15


class IPv4Address:
    """An immutable IPv4 address."""

    __slots__ = ("value", "_text")
    _intern: Dict[int, "IPv4Address"] = {}

    def __new__(cls, value: AddressLike) -> "IPv4Address":
        if isinstance(value, IPv4Address):
            return value
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address {value!r}")
            number = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"octet out of range in {value!r}")
                number = (number << 8) | octet
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"address integer out of range: {value}")
            number = value
        else:
            raise TypeError(f"cannot make an IPv4Address from {type(value).__name__}")
        cached = cls._intern.get(number)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.value = number
        self._text = ".".join(str((number >> shift) & 0xFF) for shift in (24, 16, 8, 0))
        if len(cls._intern) < INTERN_LIMIT:
            cls._intern[number] = self
        return self

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"IPv4Address({self._text!r})"

    def __hash__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        if isinstance(other, (str, int)):
            try:
                return self.value == IPv4Address(other).value
            except (ValueError, TypeError):
                return False
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < IPv4Address(other).value

    def to_bytes(self) -> bytes:
        """Big-endian byte representation."""
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise ValueError("IPv4 address must be 4 bytes")
        number = int.from_bytes(data, "big")
        cached = cls._intern.get(number)
        if cached is not None:
            return cached
        return cls(number)

    @classmethod
    def from_value(cls, number: int) -> "IPv4Address":
        """The interned address for a 32-bit integer (hot parse path)."""
        cached = cls._intern.get(number)
        if cached is not None:
            return cached
        return cls(number)


def as_address(value: AddressLike) -> "IPv4Address":
    """Coerce ``value`` to an :class:`IPv4Address`.

    The common case on packet paths — the value already is an address —
    returns it without entering the constructor; everything else goes
    through the interning constructor.
    """
    if type(value) is IPv4Address:
        return value
    return IPv4Address(value)


class IPv4Network:
    """A network in CIDR form, supporting membership tests and iteration."""

    __slots__ = ("network", "prefix_len", "_mask")

    def __init__(self, cidr: str) -> None:
        try:
            base, prefix = cidr.split("/")
        except ValueError as exc:
            raise ValueError(f"expected 'a.b.c.d/len', got {cidr!r}") from exc
        self.prefix_len = int(prefix)
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix length out of range in {cidr!r}")
        self._mask = (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF
        self.network = IPv4Address(IPv4Address(base).value & self._mask)

    def __contains__(self, address: AddressLike) -> bool:
        if type(address) is IPv4Address:
            return (address.value & self._mask) == self.network.value
        return (IPv4Address(address).value & self._mask) == self.network.value

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th host address (1-based; 0 is the network)."""
        size = 1 << (32 - self.prefix_len)
        if not 0 <= index < size:
            raise ValueError(f"host index {index} outside /{self.prefix_len}")
        return IPv4Address(self.network.value + index)
