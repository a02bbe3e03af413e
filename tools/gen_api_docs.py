"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the symbols each ``__init__``
exports (or, for leaf modules, their public classes/functions), and dumps
signatures plus first-paragraph docstrings into a single reference file.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

OUTPUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_paragraph(doc: str) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


class _Named:
    """A default shown by its name: a function's own repr holds its
    address, which would change the file on every run."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


def signature_of(obj) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    params = [
        p.replace(default=_Named(p.default.__qualname__))
        if inspect.isroutine(p.default) else p
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params))


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        # Only document symbols defined inside the repro package.
        defined_in = getattr(obj, "__module__", "") or ""
        if not defined_in.startswith("repro"):
            continue
        yield name, obj


def describe(name, obj, lines):
    if inspect.isclass(obj):
        lines.append(f"### `{name}`\n")
        lines.append(first_paragraph(inspect.getdoc(obj)) + "\n")
        methods = []
        for attr, member in sorted(vars(obj).items()):
            if attr.startswith("_"):
                continue
            if callable(member):
                methods.append(f"- `{attr}{signature_of(member)}` — "
                               f"{first_paragraph(inspect.getdoc(member))}")
            elif isinstance(member, property):
                methods.append(f"- `{attr}` (property) — "
                               f"{first_paragraph(inspect.getdoc(member.fget))}")
        if methods:
            lines.extend(methods)
            lines.append("")
    elif callable(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(first_paragraph(inspect.getdoc(obj)) + "\n")


def main() -> int:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "",
    ]
    packages = sorted(
        module.name
        for module in pkgutil.iter_modules(repro.__path__, "repro.")
        if module.ispkg
    )
    for package_name in ["repro"] + packages:
        module = importlib.import_module(package_name)
        lines.append(f"## `{package_name}`\n")
        lines.append(first_paragraph(inspect.getdoc(module)) + "\n")
        seen = set()
        for name, obj in public_members(module):
            key = (getattr(obj, "__module__", ""), name)
            if key in seen:
                continue
            seen.add(key)
            describe(name, obj, lines)
    OUTPUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUTPUT} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
