"""Generate docs/API.md from the package's public API docstrings.

Walks every module of the ``repro`` package tree (packages themselves
only re-export), collects the names each module exports through
``__all__``, and renders signatures plus first-paragraph docstrings into
a single markdown reference.  Re-run after changing the public API:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import repro

#: A function's default repr carries its memory address, which changes
#: on every run; the docs name the function by its qualified name.
FUNCTION_REPR = re.compile(r"<function (\S+) at 0x[0-9a-f]+>")


def stable(text: str) -> str:
    """``text`` with every function repr replaced by its qualified name."""
    return FUNCTION_REPR.sub(r"\1", text)


def first_paragraph(doc: str) -> str:
    """The leading paragraph of a docstring, joined to one line."""
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        return stable(str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def class_methods(cls) -> list:
    """``(name, method, kind)`` for each public method ``cls`` defines
    itself, by name.

    Read from the class ``__dict__``, so class and static methods are
    listed too; ``kind`` is ``"classmethod"``, ``"staticmethod"`` or
    ``""`` for a plain method, and ``method`` is the attribute as the
    class returns it, so a class method's signature drops ``cls``.
    """
    methods = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, classmethod):
            kind = "classmethod"
        elif isinstance(member, staticmethod):
            kind = "staticmethod"
        elif inspect.isfunction(member):
            kind = ""
        else:
            continue
        methods.append((name, getattr(cls, name), kind))
    return methods


def render_member(name: str, obj) -> list:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"#### class `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(inspect.getdoc(obj)))
        lines.append("")
        methods = class_methods(obj)
        for method_name, method, kind in methods:
            marker = f" *({kind})*" if kind else ""
            lines.append(
                f"- `{method_name}{signature_of(method)}`{marker} — "
                f"{first_paragraph(inspect.getdoc(method))}"
            )
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"#### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(inspect.getdoc(obj)))
        lines.append("")
    else:
        lines.append(f"#### `{name}` = `{stable(repr(obj))}`" if not inspect.ismodule(obj) else "")
        lines.append("")
    return lines


def render_module(module_name: str) -> list:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    lines.append(first_paragraph(inspect.getdoc(module)))
    lines.append("")
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    for name in exported:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        lines.extend(render_member(name, obj))
    return lines


def main() -> int:
    out = [
        "# API reference",
        "",
        "*Generated by `scripts/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.ispkg:
            out.extend(render_module(info.name))
    target = pathlib.Path(__file__).parent.parent / "docs" / "API.md"
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
