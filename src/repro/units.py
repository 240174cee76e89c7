"""Time, frequency, and data-size units used throughout the simulator.

The simulation clock is an integer number of **picoseconds**.  Integer
time makes event ordering exact and lets tests assert equalities instead
of tolerances.  All public model parameters are expressed in natural
units (nanoseconds, gigahertz, bytes) and converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

#: One picosecond, the base tick of the simulation clock.
PS = 1
#: Picoseconds per nanosecond.
NS = 1_000
#: Picoseconds per microsecond.
US = 1_000_000
#: Picoseconds per millisecond.
MS = 1_000_000_000
#: Picoseconds per second.
S = 1_000_000_000_000

#: Bytes per kibibyte / mebibyte / gibibyte.
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

#: Bytes per (decimal) kilobyte / megabyte / gigabyte.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

#: Nanoseconds per second (host wall-clock conversions, not ticks).
NS_PER_S = 1_000_000_000


def ps(value: float) -> int:
    """Convert a picosecond quantity to integer simulation ticks."""
    return round(value)


def ns(value: float) -> int:
    """Convert nanoseconds to integer simulation ticks."""
    return round(value * NS)


def us(value: float) -> int:
    """Convert microseconds to integer simulation ticks."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to integer simulation ticks."""
    return round(value * MS)


def seconds(value: float) -> int:
    """Convert seconds to integer simulation ticks."""
    return round(value * S)


def to_ns(ticks: int) -> float:
    """Convert integer simulation ticks back to (float) nanoseconds."""
    return ticks / NS


def to_us(ticks: int) -> float:
    """Convert integer simulation ticks back to (float) microseconds."""
    return ticks / US


def to_seconds(ticks: int) -> float:
    """Convert integer simulation ticks back to (float) seconds."""
    return ticks / S


@dataclass(frozen=True)
class Frequency:
    """A clock frequency with an integer-picosecond period.

    The period is rounded to the nearest picosecond, so e.g. 2.3 GHz is
    represented with a 435 ps period (an effective 2.2989 GHz).  The
    rounding error is far below the fidelity of a cycle-approximate
    model and buys exact integer time arithmetic.
    """

    hertz: float

    def __post_init__(self) -> None:
        if self.hertz <= 0:
            raise ValueError(f"frequency must be positive, got {self.hertz}")
        # Converted once: cycles() runs per dispatched instruction block.
        # Not a field, so equality, hashing and repr are unaffected.
        object.__setattr__(self, "_period_ps", max(1, round(S / self.hertz)))

    @property
    def period_ps(self) -> int:
        """Length of one cycle in simulation ticks (>= 1)."""
        return self._period_ps

    def cycles(self, n: float) -> int:
        """Duration of ``n`` cycles in simulation ticks.

        ``n`` may be fractional (e.g. instructions / IPC); the result is
        rounded to the nearest tick.
        """
        return round(n * self._period_ps)

    def to_cycles(self, ticks: int) -> float:
        """Convert a tick duration to (float) cycles of this clock."""
        return ticks / self._period_ps


def gigahertz(value: float) -> Frequency:
    """Build a :class:`Frequency` from a value in GHz."""
    return Frequency(value * 1e9)


def bytes_per_second(rate: float) -> float:
    """Convert bytes/second to bytes **per tick** (float).

    Link models multiply by a byte count and round, so keeping the rate
    as a float loses no generality.
    """
    return rate / S


def transfer_ticks(num_bytes: int, rate_bytes_per_s: float) -> int:
    """Serialization delay of ``num_bytes`` at ``rate_bytes_per_s``.

    Always at least one tick for a non-empty transfer so that ordering
    through a link is strict.
    """
    if num_bytes <= 0:
        return 0
    return max(1, round(num_bytes * S / rate_bytes_per_s))
