"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
:func:`parse_knob` is the one parser of numeric ``REPRO_*`` environment
knobs, raising :class:`ConfigurationError` on a bad value.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

_T = TypeVar("_T")


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is used incorrectly.

    Examples: scheduling an event in the past, running a simulator that was
    already stopped, or re-entrant calls to :meth:`Simulator.run`.
    """


class ConfigurationError(ReproError):
    """Raised when a configuration object carries invalid values."""


def parse_knob(
    var: str,
    raw: str,
    convert: Callable[[str], _T],
    valid: Callable[[_T], bool],
    expects: str,
    bounds: Optional[str] = None,
) -> _T:
    """Parse one environment knob's raw value, or raise naming both.

    ``convert`` raising ``ValueError`` reports ``"<var> must <expects>,
    got <raw>"``; so does a converted value ``valid`` rejects, with
    ``bounds`` in place of ``expects`` when given.
    """
    try:
        value = convert(raw)
    except ValueError:
        raise ConfigurationError(f"{var} must {expects}, got {raw!r}") from None
    if not valid(value):
        raise ConfigurationError(f"{var} must {bounds or expects}, got {raw!r}")
    return value


class TopologyError(ReproError):
    """Raised for invalid topology operations (unknown node, bad grid)."""


class DataModelError(ReproError):
    """Raised for invalid descriptors, predicates or queries."""


class ProtocolError(ReproError):
    """Raised when a protocol engine receives a malformed message."""
