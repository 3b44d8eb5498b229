"""Every definition under ``src/`` is reached from outside ``tests/``.

The scan parses each ``.py`` file under ``src/``, ``examples/``,
``benchmarks/``, ``perfbench/`` and ``scripts/`` and collects what they
reference: bare names, attributes and identifier-like strings
(``getattr`` targets, tracer hooks).  It skips ``scripts/gen_api_docs.py``,
which walks every public name, and ``__all__`` lists.  An import is not
a use; the name read after it is.  A definition is a class, or a
function or method at module or class level; dunder methods are called
implicitly and are not checked.

Matching is by name.  A method is reached when any code reads an
attribute of its name; a module-level definition also when a bare name
matches.  A reference from inside the definition it names does not
count, and neither does one from inside a definition the scan finds
unreached, so a chain of dead helpers is reported whole.
"""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "perfbench", "scripts")
SKIPPED = {"scripts/gen_api_docs.py"}
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_TRACE = "the explain item (ROADMAP) extends core/trace.py, kept whole"
_FIELD = "the golden-vector tests read GF(256) through it"
_QUEUE = "the kernel differential tests observe queue depth through it"

#: ``path:qualname`` -> why the definition stays although only tests
#: reach it.
KEEP = {
    "src/repro/core/trace.py:export_logs_jsonl": _TRACE,
    "src/repro/core/trace.py:export_timeline_csv": _TRACE,
    "src/repro/core/trace.py:find_anomalies": _TRACE,
    "src/repro/ec/galois.py:gf_sub": _FIELD,
    "src/repro/ec/galois.py:gf_div": _FIELD,
    "src/repro/ec/galois.py:gf_log": _FIELD,
    "src/repro/ec/galois.py:exp_table": _FIELD,
    "src/repro/ec/matrix.py:matmul": _FIELD,
    "src/repro/ec/matrix.py:vandermonde": _FIELD,
    "src/repro/ec/lrc.py:LocallyRepairableCode.can_recover":
        "the LRC tests' oracle of which erasure patterns decode",
    "src/repro/ec/shec.py:ShingledErasureCode.can_recover":
        "the SHEC tests' oracle of which erasure patterns decode",
    "src/repro/ec/reed_solomon.py:IsaReedSolomon":
        "registered as the plugin 'isa' by its decorator",
    "src/repro/sim/resources.py:Resource.queue_length": _QUEUE,
    "src/repro/sim/resources.py:ServiceCenter.queue_length": _QUEUE,
    "src/repro/sim/resources.py:Resource.in_use":
        "the only reader of the private slot count ``_in_use``",
    "src/repro/cluster/scrub.py:IntegrityStore.chunk_data":
        "the bit-identical-repair test reads ``_record`` through it",
    "src/repro/twin/model.py:predict_overwrite_amplification":
        "PINNED_TWIN_GRID_HASH pins it; the WA ledger measures the ratio",
}


class _Definition:
    def __init__(self, path, name, lineno, parent):
        self.qualname = f"{parent.qualname}.{name}" if parent else name
        self.key = f"{path}:{self.qualname}"
        self.where = f"{path}:{lineno} {self.qualname}"
        self.name = name
        self.parent = parent


class _Scan(ast.NodeVisitor):
    """One file's definitions, and its references, each with the
    definitions that enclose it."""

    def __init__(self, path):
        self.path = path
        self.open = path.startswith("src/")  # may a def here be checked?
        self.stack = []
        self.definitions = []
        self.references = []  # (name, kind, enclosing definitions)

    def _define(self, node):
        definition = None
        if self.open and not (node.name.startswith("__")
                              and node.name.endswith("__")):
            parent = self.stack[-1] if self.stack else None
            definition = _Definition(self.path, node.name, node.lineno, parent)
            self.definitions.append(definition)
            self.stack.append(definition)
        was_open = self.open
        self.open = definition is not None and isinstance(node, ast.ClassDef)
        self.generic_visit(node)
        self.open = was_open
        if definition is not None:
            self.stack.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _define

    def _refer(self, name, kind):
        self.references.append((name, kind, tuple(self.stack)))

    def visit_Name(self, node):
        self._refer(node.id, "bare")

    def visit_Attribute(self, node):
        self._refer(node.attr, "attr")
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and IDENTIFIER.match(node.value):
            self._refer(node.value, "string")

    def visit_Assign(self, node):
        if not any(getattr(t, "id", None) == "__all__" for t in node.targets):
            self.generic_visit(node)


@functools.lru_cache(maxsize=None)
def unreached():
    """Every definition under ``src/`` nothing outside ``tests/`` reaches.

    Kept definitions are listed too, but the references they make count.
    Both tests read one scan.
    """
    definitions, references = [], []
    for top in SCANNED:
        for file in sorted((ROOT / top).rglob("*.py")):
            path = file.relative_to(ROOT).as_posix()
            if path not in SKIPPED:
                scan = _Scan(path)
                scan.visit(ast.parse(file.read_text(), filename=path))
                definitions += scan.definitions
                references += scan.references
    uses = {}
    for name, kind, stack in references:
        uses.setdefault(name, []).append((kind, stack))

    def reached(d, dead):
        return any((kind != "bare" or d.parent is None)
                   and d not in stack and dead.isdisjoint(stack)
                   for kind, stack in uses.get(d.name, ()))

    dead = set()
    while True:
        found = [d for d in definitions if not reached(d, dead)]
        grown = {d for d in found if d.key not in KEEP}
        if grown == dead:
            return found
        dead = grown


def test_every_definition_under_src_is_reached_from_outside_tests():
    found = unreached()
    dead = {d for d in found if d.key not in KEEP}

    def outermost(d):
        return d.parent is None or (d.parent not in dead
                                    and outermost(d.parent))

    report = [d.where for d in dead if outermost(d)]
    assert not report, ("nothing outside tests/ reaches:\n"
                        + "\n".join(sorted(report)))


def test_every_keep_entry_names_an_unreached_definition():
    found = {d.key for d in unreached()}
    stale = sorted(key for key in KEEP if key not in found)
    assert not stale, f"kept but reached, or gone: {stale}"
    assert all(reason.strip() for reason in KEEP.values())
