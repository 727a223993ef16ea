"""Runtime settings: the eight ``REPRO_*`` variables, parsed in one place.

:class:`Settings` is a frozen value with one field per variable, and
:meth:`Settings.from_env` is the only code in the package that reads
the environment. Every field passes one rule with one error wording,
whichever way it arrived: from a variable, from :func:`set_settings`,
or from a caller's argument (``execute(workers=...)``, a worker count
sent over the wire). Two scopes, both by value:

* process-wide — :func:`set_settings`; when nothing was set, the
  environment is read once, on first use;
* thread-scoped — ``with scoped_settings(workers=2): ...`` wins on the
  calling thread only, so two sessions running concurrently with
  different worker counts never see each other's.

README "Configuration" maps each variable to its field, default and
readers.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, NamedTuple

from repro.errors import ConfigurationError

#: the largest worker count any entry point accepts. The thread and
#: process pools grow to the largest count ever requested and never
#: shrink, so this bounds what one request can make the process keep.
MAX_WORKERS = 64

#: rows per disk segment (64Ki: a few hundred KiB per int64 segment).
DEFAULT_SEGMENT_ROWS = 65536

_BYTE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_bytes(text: str) -> int:
    """Parse a byte count: ``4194304``, ``4m``, ``512k``, ``1g`` (powers
    of 1024; ``4mib`` and ``512kb`` spell the same).

    :raises ValueError: when ``text`` is none of these.
    """
    raw = text.strip().lower()
    # Tolerate spelled-out binary suffixes ("4mib", "512kb").
    for tail in ("ib", "b"):
        if raw.endswith(tail) and len(raw) > len(tail) and raw[-len(tail) - 1] in _BYTE_SUFFIXES:
            raw = raw[: -len(tail)]
            break
    factor = _BYTE_SUFFIXES.get(raw[-1:], 1)
    return int(raw[:-1] if factor > 1 else raw) * factor


class _Rule(NamedTuple):
    """How one field is read from its variable and what it may hold."""

    variable: str
    expects: str  # what a valid value is: the tail of the one error wording
    parse: Callable[[str], object]  # the variable's text -> a value (or ValueError)
    valid: Callable[[object], bool]


def _count(variable: str, upper=float("inf"), expects="an integer > 0", parse=int) -> _Rule:
    def valid(value) -> bool:  # a bool is an int to Python, never a count here
        return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= upper

    return _Rule(variable, expects, parse, valid)


def _one_of(variable: str, choices: tuple) -> _Rule:
    return _Rule(variable, f"one of {choices}", str.lower, choices.__contains__)


def _text(variable: str, expects: str) -> _Rule:
    return _Rule(variable, expects, str, lambda value: isinstance(value, str))


_RULES = {
    "workers": _count("REPRO_WORKERS", MAX_WORKERS, f"an integer in 1..{MAX_WORKERS}"),
    "backend": _one_of("REPRO_BACKEND", ("thread", "process")),
    "storage": _one_of("REPRO_STORAGE", ("memory", "disk")),
    "spill_dir": _text("REPRO_SPILL_DIR", "a directory ('' = a per-process temp dir)"),
    "buffer_bytes": _count(
        "REPRO_BUFFER_BYTES", expects="a byte count > 0 (4194304, 512k, 4m, 1g)", parse=parse_bytes
    ),
    "segment_rows": _count("REPRO_SEGMENT_ROWS"),
    "query_log": _text("REPRO_QUERY_LOG", "a file path ('' = no log)"),
    "proc_start": _one_of("REPRO_PROC_START", ("spawn", "fork", "forkserver")),
}


def _invalid(label: str, rule: _Rule, value) -> ConfigurationError:
    return ConfigurationError(f"{label} must be {rule.expects}, got {value!r}")


def check(name: str, value):
    """``value`` if the field ``name`` may hold it — the rule every
    source of that setting passes (used where a value enters from a
    caller rather than from :class:`Settings`).

    :raises ConfigurationError: naming the field, otherwise.
    """
    rule = _RULES[name]
    if not rule.valid(value):
        raise _invalid(name, rule, value)
    return value


@dataclass(frozen=True)
class Settings:
    """Every runtime setting, validated on construction."""

    #: morsel workers per query (1 = every operator runs serial).
    workers: int = 1
    #: the pool parallel loops run on: ``"thread"``, or ``"process"``
    #: (:mod:`repro.engine.procpool`).
    backend: str = "thread"
    #: ``"memory"``, or ``"disk"``: :meth:`~repro.storage.catalog.
    #: Catalog.register` spills every table, so the whole engine runs on
    #: the segment path.
    storage: str = "memory"
    #: where spilled tables live; ``""`` = a per-process temp directory.
    spill_dir: str = ""
    #: byte budget of the default buffer pool (256 MiB).
    buffer_bytes: int = 256 * 1024 * 1024
    #: rows per segment of a spilled table.
    segment_rows: int = DEFAULT_SEGMENT_ROWS
    #: query-log path; ``""`` = none (:func:`repro.obs.querylog.
    #: set_query_log` wins over it).
    query_log: str = ""
    #: the :mod:`multiprocessing` start method of process-pool workers
    #: (``fork`` is cheap in scripts; ``spawn`` is safe under the
    #: service's threads).
    proc_start: str = "spawn"

    def __post_init__(self) -> None:
        for name in _RULES:
            check(name, getattr(self, name))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "Settings":
        """The settings ``environ`` (default: the process environment)
        names; an unset or blank variable keeps its field's default.

        :raises ConfigurationError: naming the variable, for any
            malformed value — a typo'd deployment fails loudly instead of
            silently running with defaults.
        """
        environ = os.environ if environ is None else environ
        values = {}
        for name, rule in _RULES.items():
            text = environ.get(rule.variable, "").strip()
            if not text:
                continue
            try:
                values[name] = check(name, rule.parse(text))
            except (ValueError, ConfigurationError):
                raise _invalid(rule.variable, rule, text) from None
        return cls(**values)


class _Scope(threading.local):
    # A class-level default: reading an unset thread-local through
    # getattr(..., None) raises and catches inside, ~10x the cost.
    settings: Settings | None = None


_settings: Settings | None = None
_settings_lock = threading.Lock()
_scoped = _Scope()


def get_settings() -> Settings:
    """The settings in force on the calling thread: its
    :func:`scoped_settings` value if one is open, else the process-wide
    value (read from the environment on first use). On every query's
    path: two attribute reads."""
    return _scoped.settings or _settings or _resolve()


def _resolve() -> Settings:
    global _settings
    with _settings_lock:
        if _settings is None:
            _settings = Settings.from_env()
        return _settings


def set_settings(settings: Settings | None) -> Settings | None:
    """Replace the process-wide settings; ``None`` reads the environment
    again on next use. Returns the value replaced, so a caller can put
    it back."""
    global _settings
    with _settings_lock:
        previous, _settings = _settings, settings
    return previous


@contextmanager
def scoped_settings(**changes) -> Iterator[Settings]:
    """The current settings with ``changes`` applied, in force on the
    calling thread until the block exits (also on error)."""
    previous = _scoped.settings
    _scoped.settings = replace(get_settings(), **changes)
    try:
        yield _scoped.settings
    finally:
        _scoped.settings = previous


def ambient(**values) -> Settings:
    """The current settings with every non-``None`` entry of ``values``
    in place — the one reading of "``None`` means whatever this process
    (or thread) is configured with", e.g. ``ambient(workers=config.
    workers).workers``."""
    given = {name: value for name, value in values.items() if value is not None}
    return replace(get_settings(), **given) if given else get_settings()
