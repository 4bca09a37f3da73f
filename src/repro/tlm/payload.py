"""TLM generic payload."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class TlmCommand(Enum):
    """Transaction commands."""

    READ = "read"
    WRITE = "write"
    IGNORE = "ignore"   # debug/analysis transport


class ResponseStatus(Enum):
    """Transaction completion status."""

    INCOMPLETE = "incomplete"
    OK = "ok"
    ADDRESS_ERROR = "address_error"
    COMMAND_ERROR = "command_error"


@dataclass
class GenericPayload:
    """The TLM-2-style generic payload.

    Attributes
    ----------
    command:
        READ, WRITE or IGNORE.
    address:
        Byte address in the platform memory map.
    data:
        Write data in, read data out.
    length:
        Transfer length in bytes.
    status:
        Set by the target.
    """

    command: TlmCommand
    address: int
    data: Optional[bytes] = None
    length: int = 4
    status: ResponseStatus = ResponseStatus.INCOMPLETE

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"negative address {self.address:#x}")
        if self.length < 1:
            raise ValueError(f"transfer length must be >=1, got {self.length}")
        if (
            self.command is TlmCommand.WRITE
            and self.data is not None
            and len(self.data) != self.length
        ):
            raise ValueError(
                f"write data length {len(self.data)} != payload length "
                f"{self.length}"
            )

    @property
    def is_ok(self) -> bool:
        return self.status is ResponseStatus.OK
