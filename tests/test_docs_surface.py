"""The documented and exported surface exists.

README.md and DESIGN.md name modules, classes and functions as
backticked ``repro.…`` dotted names; every ``repro`` module lists its
public names in ``__all__``. A deleted or renamed name must leave both,
so each one here has to resolve to a real object.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", "DESIGN.md")

#: an inline code span, or a fenced block's body.
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def resolve(dotted: str) -> object:
    """The object ``dotted`` names: the longest importable module
    prefix, then attribute lookups for the rest. Raises ImportError or
    AttributeError when it names nothing."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def documented_names() -> list[tuple[str, str]]:
    names = set()
    for document in DOCUMENTS:
        text = (ROOT / document).read_text(encoding="utf-8")
        for span in CODE.findall(text):
            names.update((document, name) for name in DOTTED.findall(span))
    return sorted(names)


def library_modules() -> list[str]:
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    )


def test_documented_names_resolve():
    missing = []
    for document, name in documented_names():
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(f"{document}: {name}")
    assert missing == []


def test_exported_names_resolve():
    missing = []
    for module_name in library_modules():
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert missing == []
