"""DSOC interface definitions.

A tiny IDL-as-Python-objects layer: interfaces declare methods, methods
declare typed parameters and whether they are *oneway* (fire-and-forget
— no response message, the pattern used for packet hand-off pipelines).
The broker validates calls against the interface before marshaling, so
type errors surface at the caller, not as corrupted simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


class IdlError(TypeError):
    """Interface declaration or call-signature violation."""


#: Supported parameter types and their Python validators.
_TYPE_CHECKS = {
    "u8": lambda v: isinstance(v, int) and 0 <= v < 2 ** 8,
    "u16": lambda v: isinstance(v, int) and 0 <= v < 2 ** 16,
    "u32": lambda v: isinstance(v, int) and 0 <= v < 2 ** 32,
    "u64": lambda v: isinstance(v, int) and 0 <= v < 2 ** 64,
    "i32": lambda v: isinstance(v, int) and -(2 ** 31) <= v < 2 ** 31,
    "f64": lambda v: isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bytes": lambda v: isinstance(v, (bytes, bytearray)),
    "any": lambda v: True,
}


@dataclass(frozen=True)
class Param:
    """One typed parameter."""

    name: str
    type: str

    def __post_init__(self) -> None:
        base = self.type
        if base.startswith("list<") and base.endswith(">"):
            base = base[5:-1]
        if base not in _TYPE_CHECKS:
            raise IdlError(
                f"parameter {self.name!r}: unknown type {self.type!r}; "
                f"known: {', '.join(sorted(_TYPE_CHECKS))} and list<...>"
            )

    def check(self, value: Any) -> None:
        """Raise :class:`IdlError` if *value* doesn't match the type."""
        if self.type.startswith("list<"):
            inner = self.type[5:-1]
            if not isinstance(value, (list, tuple)):
                raise IdlError(
                    f"parameter {self.name!r}: expected {self.type}, "
                    f"got {type(value).__name__}"
                )
            for item in value:
                if not _TYPE_CHECKS[inner](item):
                    raise IdlError(
                        f"parameter {self.name!r}: element {item!r} is not {inner}"
                    )
            return
        if not _TYPE_CHECKS[self.type](value):
            raise IdlError(
                f"parameter {self.name!r}: value {value!r} is not {self.type}"
            )


@dataclass(frozen=True)
class Method:
    """One interface method."""

    name: str
    params: Tuple[Param, ...] = ()
    returns: str = "any"
    oneway: bool = False

    def __post_init__(self) -> None:
        if self.oneway and self.returns != "any" and self.returns != "none":
            raise IdlError(
                f"oneway method {self.name!r} cannot declare a return type"
            )
        seen = set()
        for param in self.params:
            if param.name in seen:
                raise IdlError(
                    f"method {self.name!r}: duplicate parameter {param.name!r}"
                )
            seen.add(param.name)

    def check_args(self, args: Tuple[Any, ...]) -> None:
        """Validate a positional argument tuple against the signature."""
        if len(args) != len(self.params):
            raise IdlError(
                f"method {self.name!r} takes {len(self.params)} arguments, "
                f"got {len(args)}"
            )
        for param, value in zip(self.params, args):
            param.check(value)


@dataclass(frozen=True)
class Interface:
    """A named collection of methods."""

    name: str
    methods: Tuple[Method, ...] = ()
    _by_name: Dict[str, Method] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise IdlError("interface needs a non-empty name")
        seen = set()
        for method in self.methods:
            if method.name in seen:
                raise IdlError(
                    f"interface {self.name!r}: duplicate method {method.name!r}"
                )
            seen.add(method.name)
            self._by_name[method.name] = method

    def method(self, name: str) -> Method:
        """Look up a method, raising :class:`IdlError` on a miss."""
        try:
            return self._by_name[name]
        except KeyError:
            raise IdlError(
                f"interface {self.name!r} has no method {name!r}; "
                f"available: {', '.join(m.name for m in self.methods)}"
            ) from None
