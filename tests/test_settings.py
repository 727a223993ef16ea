"""One Settings, resolved once: the eight REPRO_* variables, their single
validation rule, and the two scopes (process-wide and thread-scoped)."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.settings import (
    MAX_WORKERS,
    Settings,
    ambient,
    check,
    get_settings,
    scoped_settings,
    set_settings,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: every variable set, as the README's configuration table names them.
EVERY_VARIABLE = {
    "REPRO_WORKERS": "4",
    "REPRO_BACKEND": " Process ",
    "REPRO_STORAGE": "disk",
    "REPRO_SPILL_DIR": "/tmp/spill",
    "REPRO_BUFFER_BYTES": "4m",
    "REPRO_SEGMENT_ROWS": "8192",
    "REPRO_QUERY_LOG": "run.jsonl",
    "REPRO_PROC_START": "fork",
}

#: (variable, text) pairs the environment may not hold.
MALFORMED = [
    ("REPRO_WORKERS", "0"),
    ("REPRO_WORKERS", "-2"),
    ("REPRO_WORKERS", "many"),
    ("REPRO_WORKERS", "2.5"),
    ("REPRO_WORKERS", str(MAX_WORKERS + 1)),
    ("REPRO_BACKEND", "fiber"),
    ("REPRO_STORAGE", "tape"),
    ("REPRO_BUFFER_BYTES", "lots"),
    ("REPRO_BUFFER_BYTES", "0"),
    ("REPRO_BUFFER_BYTES", "4x"),
    ("REPRO_SEGMENT_ROWS", "0"),
    ("REPRO_SEGMENT_ROWS", "many"),
    ("REPRO_PROC_START", "clone"),
]

#: (field, value) pairs no source may set.
INVALID_VALUES = [
    ("workers", 0),
    ("workers", "2"),
    ("workers", True),
    ("workers", MAX_WORKERS + 1),
    ("backend", "fiber"),
    ("storage", "tape"),
    ("spill_dir", None),
    ("buffer_bytes", 0),
    ("segment_rows", -1),
    ("query_log", 3),
    ("proc_start", "clone"),
]


class TestFromEnv:
    def test_every_default(self):
        settings = Settings.from_env({})
        assert settings == Settings()
        assert dataclasses.asdict(settings) == {
            "workers": 1,
            "backend": "thread",
            "storage": "memory",
            "spill_dir": "",
            "buffer_bytes": 256 * 1024**2,
            "segment_rows": 65_536,
            "query_log": "",
            "proc_start": "spawn",
        }

    def test_reads_every_variable(self):
        assert Settings.from_env(EVERY_VARIABLE) == Settings(
            workers=4,
            backend="process",
            storage="disk",
            spill_dir="/tmp/spill",
            buffer_bytes=4 * 1024**2,
            segment_rows=8192,
            query_log="run.jsonl",
            proc_start="fork",
        )

    def test_blank_variables_keep_defaults(self):
        blank = {name: "  " for name in EVERY_VARIABLE}
        assert Settings.from_env(blank) == Settings()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("4194304", 4 * 1024**2),
            ("4m", 4 * 1024**2),
            ("512k", 512 * 1024),
            ("4mib", 4 * 1024**2),
            ("512KB", 512 * 1024),
            ("1g", 1024**3),
        ],
    )
    def test_byte_forms(self, text, expected):
        assert Settings.from_env({"REPRO_BUFFER_BYTES": text}).buffer_bytes == expected

    @pytest.mark.parametrize(
        "variable, text", MALFORMED, ids=[f"{v}={t}" for v, t in MALFORMED]
    )
    def test_malformed_value_names_its_variable(self, variable, text):
        with pytest.raises(ConfigurationError, match=variable) as info:
            Settings.from_env({variable: text})
        assert repr(text) in str(info.value)

    def test_ci_legs_reach_get_settings(self, tmp_path):
        """The variables CI's env-var legs set, read by a fresh process."""
        legs = {
            "REPRO_WORKERS": "2",
            "REPRO_BACKEND": "process",
            "REPRO_STORAGE": "disk",
            "REPRO_BUFFER_BYTES": "4m",
            "REPRO_SEGMENT_ROWS": "8192",
            "REPRO_QUERY_LOG": str(tmp_path / "log.jsonl"),
        }
        environment = {
            name: value for name, value in os.environ.items() if not name.startswith("REPRO_")
        }
        environment.update(legs, PYTHONPATH=str(SRC))
        printed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import dataclasses, json; from repro.settings import get_settings; "
                "print(json.dumps(dataclasses.asdict(get_settings())))",
            ],
            env=environment,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert json.loads(printed.stdout) == dataclasses.asdict(Settings.from_env(legs))


class TestByValue:
    @pytest.mark.parametrize(
        "field, value", INVALID_VALUES, ids=[f"{f}={v!r}" for f, v in INVALID_VALUES]
    )
    def test_rejects_what_no_source_may_set(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            Settings(**{field: value})
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            check(field, value)
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            with scoped_settings(**{field: value}):
                pass

    def test_ambient_fills_only_what_is_none(self):
        assert ambient(workers=None, backend=None) is get_settings()
        with scoped_settings(workers=3, backend="process"):
            assert ambient(workers=None).workers == 3
            assert ambient(workers=2).workers == 2
            assert ambient(backend="thread").backend == "thread"
        with pytest.raises(ConfigurationError):
            ambient(workers=0)


class TestScopes:
    def test_thread_scope_applies_and_restores(self):
        before = get_settings()
        with scoped_settings(workers=3) as scoped:
            assert scoped.workers == 3
            assert get_settings() is scoped
            with scoped_settings(storage="disk"):
                assert (get_settings().workers, get_settings().storage) == (3, "disk")
            assert get_settings() is scoped
        assert get_settings() == before

    def test_thread_scope_restores_on_error(self):
        before = get_settings()
        with pytest.raises(RuntimeError):
            with scoped_settings(workers=2):
                raise RuntimeError("boom")
        assert get_settings() == before

    def test_thread_scope_is_invisible_to_other_threads(self):
        process_wide = get_settings()
        seen = {}
        ready, done = threading.Event(), threading.Event()

        def other():
            with scoped_settings(workers=5):
                ready.set()
                done.wait(10)
                seen["inside"] = get_settings().workers
            seen["after"] = get_settings()

        thread = threading.Thread(target=other)
        with scoped_settings(workers=7):
            thread.start()
            assert ready.wait(10)
            assert get_settings().workers == 7  # not the other thread's 5
            done.set()
            thread.join(10)
        assert seen == {"inside": 5, "after": process_wide}

    def test_set_settings_round_trip(self):
        previous = set_settings(Settings(workers=2, storage="disk"))
        try:
            assert (get_settings().workers, get_settings().storage) == (2, "disk")
            set_settings(None)  # read the environment again on next use
            assert get_settings() == Settings.from_env()
        finally:
            set_settings(previous)
