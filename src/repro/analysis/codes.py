"""The stable simlint code registry.

Codes are grouped by contract family and never renumbered; retiring a
check leaves a tombstone comment here.  ``SIM0xx`` codes are emitted by
the engine itself (pragma hygiene, parse failures) rather than by a
checker, and cannot be suppressed with pragmas -- only baselined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["CodeInfo", "CODES", "META_CODES", "is_valid_code"]


@dataclass(frozen=True)
class CodeInfo:
    """One stable diagnostic code."""

    code: str
    title: str
    rationale: str
    #: Engine-emitted codes are not pragma-suppressible (a pragma that
    #: silences pragma hygiene would be self-defeating).
    meta: bool = False


_ALL = [
    # -- SIM0xx: engine / pragma hygiene ---------------------------------
    CodeInfo(
        "SIM001",
        "malformed pragma",
        "a '# simlint:' comment that does not parse, names an unknown "
        "code, or carries no '-- justification' string; unexplained "
        "suppressions rot",
        meta=True,
    ),
    CodeInfo(
        "SIM002",
        "unused pragma",
        "a disable pragma that suppresses nothing; stale suppressions "
        "hide future regressions",
        meta=True,
    ),
    CodeInfo(
        "SIM003",
        "unparsable file",
        "a Python file the analyzer cannot parse is a file no contract "
        "can be checked in",
        meta=True,
    ),
    # -- SIM1xx: determinism ---------------------------------------------
    CodeInfo(
        "SIM101",
        "wall-clock read",
        "time.time()/monotonic()/perf_counter()/datetime.now() feeding "
        "simulation state breaks bit-for-bit reproducibility (the "
        "ledger-diff contract); simulated time is sim.now",
    ),
    CodeInfo(
        "SIM102",
        "unseeded randomness",
        "bare random.* / numpy global RNG / RandomState() without a "
        "seed makes runs irreproducible; thread an explicit seed",
    ),
    CodeInfo(
        "SIM103",
        "unordered iteration",
        "iterating a set/frozenset or a directory listing yields an "
        "unspecified order; if the results feed schedule()/event "
        "ordering the run is no longer deterministic -- wrap in "
        "sorted()",
    ),
    # -- SIM2xx: kernel contract -----------------------------------------
    CodeInfo(
        "SIM201",
        "acquire without try/finally release",
        "a Resource.acquire() whose release is not in a finally block "
        "leaks the slot when an exception is thrown into the process "
        "(the PR-2 _dispatch deadlock class)",
    ),
    CodeInfo(
        "SIM202",
        "possibly negative delay",
        "timeout()/delayed() with a bare subtraction or negative "
        "literal can schedule into the past; clamp with max(0, ...) or "
        "prove and pragma",
    ),
    CodeInfo(
        "SIM203",
        "blocking call in coroutine",
        "time.sleep()/open()/subprocess/input() inside a simulation "
        "generator blocks the host thread mid-tick instead of yielding "
        "simulated time",
    ),
    CodeInfo(
        "SIM210",
        "private priority queue",
        "heapq / queue.PriorityQueue outside repro.sim duplicates the "
        "kernel's calendar-queue scheduler (and its ordering "
        "guarantees); schedule per-item timeouts and close over the "
        "payload instead",
    ),
    CodeInfo(
        "SIM211",
        "discarded Store.put event",
        "self.<attr>.put(...) as a bare statement on an unbounded Store "
        "builds, queues and fires an acceptance event nothing waits on; "
        "push() does the same hand-off without the event",
    ),
    # -- SIM3xx: units / config ------------------------------------------
    CodeInfo(
        "SIM301",
        "magic unit-scale literal",
        "1e3/1e6/1e9/1e12/1024**n literals outside repro.units / "
        "repro.config are latent unit bugs; use the named constants "
        "and to_ns()/to_us()/to_seconds() helpers",
    ),
    CodeInfo(
        "SIM302",
        "unit-suffix mismatch",
        "binding ns()/us()/ms() (which return integer ticks) to a "
        "*_ns/*_us name, or to_ns() to a *_ticks name, mislabels the "
        "quantity's unit",
    ),
    # -- SIM4xx: observability -------------------------------------------
    CodeInfo(
        "SIM401",
        "unguarded trace emission",
        "tracer.complete()/counter()/instant() outside an "
        "'is not None' guard breaks the zero-cost-when-disabled "
        "contract (and crashes untraced runs)",
    ),
    CodeInfo(
        "SIM402",
        "duplicate probe name",
        "registering the same literal dotted metric name twice in one "
        "module is a guaranteed runtime ConfigError",
    ),
    CodeInfo(
        "SIM403",
        "unstable probe name",
        "a metric name built from id()/hash()/object repr/uuid/wall "
        "time changes every run, so snapshots never diff clean",
    ),
    CodeInfo(
        "SIM404",
        "unguarded span emission",
        "span.mark() / spans.open() / spans.close() outside an "
        "'is not None' guard breaks the spans-off zero-cost contract "
        "(BENCH_attrib gates it) and crashes unattributed runs",
    ),
]

#: code -> :class:`CodeInfo`, the single source of truth for docs,
#: pragma validation, and the fixture meta-test.
CODES: Dict[str, CodeInfo] = {info.code: info for info in _ALL}

#: Engine-emitted codes (not pragma-suppressible).
META_CODES = frozenset(info.code for info in _ALL if info.meta)


def is_valid_code(code: str) -> bool:
    return code in CODES
