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


def render_member(name: str, obj) -> list:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"#### class `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(inspect.getdoc(obj)))
        lines.append("")
        methods = [
            (method_name, method)
            for method_name, method in inspect.getmembers(obj, inspect.isfunction)
            if not method_name.startswith("_") and method.__qualname__.startswith(obj.__name__)
        ]
        for method_name, method in methods:
            lines.append(
                f"- `{method_name}{signature_of(method)}` — "
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
