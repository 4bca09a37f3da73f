"""DSOC servant objects.

A :class:`DsocObject` subclass implements an :class:`~repro.dsoc.idl.Interface`
by providing one generator method ``serve_<name>`` per interface
method.  Servant generators receive the hosting PE's
:class:`~repro.processors.multithread.ThreadContext` and a
:class:`ServiceContext` that wraps remote (NoC) accesses; they express
timing by yielding from ``ctx.compute(...)`` and data dependencies by
yielding from ``svc.read(...)`` — exactly the compute/communicate
structure the MultiFlex mapping exploits.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from repro.dsoc.idl import IdlError, Interface
from repro.noc.ocp import OcpMaster
from repro.processors.multithread import ThreadContext


class ServiceContext:
    """Per-deployment services available to servant generators."""

    def __init__(self, master: OcpMaster, ctx: ThreadContext) -> None:
        self._master = master
        self._ctx = ctx

    def read(self, target: int, address: int, size_flits: int = 2) -> Generator:
        """Split-transaction read; the core is surrendered while waiting."""
        value = yield from self._ctx.remote(
            self._master.read(target, address, size_flits)
        )
        return value

    def write(
        self, target: int, address: int, data: Any, size_flits: int = 4
    ) -> Generator:
        """Split-transaction write (acknowledged)."""
        value = yield from self._ctx.remote(
            self._master.write(target, address, data, size_flits)
        )
        return value


class DsocObject:
    """Base class for DSOC servants.

    Subclasses set :attr:`interface` and define ``serve_<method>``
    generators::

        class Counter(DsocObject):
            interface = Interface("Counter", (Method("bump", ()),))

            def __init__(self):
                super().__init__()
                self.value = 0

            def serve_bump(self, ctx, svc):
                yield from ctx.compute(5)
                self.value += 1
                return self.value
    """

    interface: Interface

    def __init__(self) -> None:
        if not isinstance(getattr(type(self), "interface", None), Interface):
            raise IdlError(
                f"{type(self).__name__} must declare a class-level "
                "'interface' of type Interface"
            )
        missing = [
            m.name
            for m in self.interface.methods
            if not callable(getattr(self, f"serve_{m.name}", None))
        ]
        if missing:
            raise IdlError(
                f"{type(self).__name__} is missing servant methods: "
                + ", ".join(f"serve_{m}" for m in missing)
            )
        # Per-instance dispatch table: the broker resolves a servant
        # generator once per request, so this lookup is on the DSOC
        # hot path — a dict hit instead of an interface walk + getattr.
        self._dispatch_table: Dict[str, Callable[..., Generator]] = {
            m.name: getattr(self, f"serve_{m.name}")
            for m in self.interface.methods
        }

    def dispatch(
        self, method: str
    ) -> Callable[..., Generator[Any, Any, Any]]:
        """Return the servant generator for *method* (validated)."""
        servant = self._dispatch_table.get(method)
        if servant is None:
            self.interface.method(method)  # raises IdlError with context
            raise IdlError(  # pragma: no cover - method() always raises
                f"no servant for {method!r}"
            )
        return servant
