"""Keyword-option census of the refresh, replay, fleet and transfer entry
points.

    python benchmarks/option_census.py

Reads the source with :mod:`ast` only (nothing is imported), so it runs on
any checkout of this repository.  For each entry point in
:data:`ENTRY_POINTS` it prints every keyword option (a parameter with a
default) and the caller groups that set it, by keyword or by position:
``src``, ``benchmarks``, ``examples``, ``perfbench`` and ``tests``, the
top-level directory of the calling file.  The summary counts the options
and names each one that no caller outside ``tests`` sets.

How calls are resolved, statically:

* a call matches an entry point by its call name (``fleet_refresh(...)``,
  ``x.add_batch(...)``, ``ClientFleet(...)``).  Where two entry points
  share a call name (``refresh``, ``fetch``) the census cannot tell their
  receivers apart: a keyword counts for every one that declares it, and
  positional arguments bind to the one whose required parameters they
  fill (the most required parameters first), and the report says so;
* ``replay_trace(**kwargs)`` forwards into ``TraceReplay``, so a
  ``replay_trace`` call counts as a ``TraceReplay`` call;
* a call inside an entry point that passes one of that entry point's own
  options on (a parameter by name, or the ``self.x`` / ``self._x`` a
  constructor stored it in) is a forward: the target option inherits the
  caller groups of the option it forwards, instead of counting as a
  ``src`` setting;
* ``**d`` and ``**d[...]`` are followed into a dict literal assigned to
  ``d`` in the same file (the keys of its inner dicts, for a table of
  configurations); any other splat is listed as unresolved.

An option whose every setting is a literal equal to its default is
marked ``default only``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ("src", "benchmarks", "examples", "perfbench", "tests")

#: (label, defining file under src/repro, qualname of the function whose
#: defaulted parameters are the options, call names that reach it,
#: further definitions that forward all of its options).
ENTRY_POINTS = (
    ("TrustedSoftwareRepository.refresh", "core/service.py",
     "TrustedSoftwareRepository.refresh", ("refresh",), ()),
    ("Scenario.refresh", "workload/scenario.py", "Scenario.refresh",
     ("refresh",), ()),
    ("multi_tenant_refresh", "workload/scenario.py", "multi_tenant_refresh",
     ("multi_tenant_refresh",), ()),
    ("RefreshOrchestrator", "core/orchestrator.py",
     "RefreshOrchestrator.__init__", ("RefreshOrchestrator",), ()),
    ("MirrorDownloadScheduler.add_batch", "core/pipeline.py",
     "MirrorDownloadScheduler.add_batch", ("add_batch",), ()),
    ("fleet_refresh", "workload/scenario.py", "fleet_refresh",
     ("fleet_refresh",), ()),
    ("run_pull_wave", "workload/scenario.py", "run_pull_wave",
     ("run_pull_wave",), ()),
    ("ClientFleet", "workload/scenario.py", "ClientFleet.__init__",
     ("ClientFleet",), ()),
    ("TraceReplay", "workload/replay.py", "TraceReplay.__init__",
     ("TraceReplay", "replay_trace"), ("replay_trace",)),
    ("PlanFetchSession.fetch", "simnet/network.py", "PlanFetchSession.fetch",
     ("fetch",), ()),
    ("ScheduledFetchSession.fetch", "simnet/network.py",
     "ScheduledFetchSession.fetch", ("fetch",), ()),
    ("ScheduledFetchSession", "simnet/network.py",
     "ScheduledFetchSession.__init__", ("ScheduledFetchSession",), ()),
    ("ParallelTransferSchedule", "simnet/schedule.py",
     "ParallelTransferSchedule.__init__", ("ParallelTransferSchedule",), ()),
)

_NO_LITERAL = object()


def _literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NO_LITERAL


@dataclass
class Option:
    name: str
    default: object
    #: group -> every setting there was a literal equal to the default.
    direct: dict[str, bool] = field(default_factory=dict)
    #: Options whose values a forward passes into this one.
    sources: set[tuple[str, str]] = field(default_factory=set)

    def record(self, group: str, value: ast.AST):
        equal = (self.default is not _NO_LITERAL
                 and _literal(value) == self.default)
        self.direct[group] = self.direct.get(group, True) and equal


@dataclass
class EntryPoint:
    label: str
    path: str
    qualname: str
    calls: tuple[str, ...]
    aliases: tuple[str, ...]
    positional: list[str] = field(default_factory=list)
    required: int = 0
    options: dict[str, Option] = field(default_factory=dict)

    @property
    def owner(self) -> str | None:
        """The class whose constructor this entry point is."""
        owner, _, method = self.qualname.rpartition(".")
        return owner if method == "__init__" else None


def _find_def(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node: ast.AST = tree
    for name in qualname.split("."):
        node = next((child for child in node.body
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     and child.name == name), None)
        if node is None:
            raise SystemExit(f"entry point {qualname} is not defined")
    return node


def load_entry_points(root: Path) -> list[EntryPoint]:
    entries = []
    for label, path, qualname, calls, aliases in ENTRY_POINTS:
        source = (root / "src" / "repro" / path).read_text()
        func = _find_def(ast.parse(source), qualname)
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if "." in qualname:
            positional = positional[1:]            # self
        defaults = dict(zip(positional[len(positional)
                                       - len(args.defaults):],
                            args.defaults))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults[arg.arg] = default
        entry = EntryPoint(label, path, qualname, calls, aliases,
                           positional=positional,
                           required=len(positional) - len(args.defaults))
        for name, default in defaults.items():
            entry.options[name] = Option(name, _literal(default))
        entries.append(entry)
    return entries


def _dict_literals(tree: ast.Module) -> tuple[dict, dict]:
    """Dict literals assigned to a name anywhere in a file, as
    ``name -> keyword -> value``: the dicts themselves (what ``**d``
    passes), and for a dict of dicts the union of its inner dicts (what
    ``**d[key]`` may pass)."""

    def keys_of(node):
        if isinstance(node, ast.Dict):
            if all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                   for k in node.keys):
                return {k.value: v for k, v in zip(node.keys, node.values)}
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "dict" and not node.args):
            return {kw.arg: kw.value for kw in node.keywords if kw.arg}
        return None

    dicts: dict[str, dict[str, ast.AST]] = {}
    tables: dict[str, dict[str, ast.AST]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        outer = keys_of(node.value)
        if outer is None:
            continue
        name = node.targets[0].id
        dicts[name] = outer
        inner = [keys_of(value) for value in outer.values()]
        if all(keys is not None for keys in inner):
            tables[name] = {k: v for keys in inner for k, v in keys.items()}
    return dicts, tables


class _Census(ast.NodeVisitor):
    def __init__(self, entries: list[EntryPoint], group: str, path: str,
                 tree: ast.Module, unresolved: list[str]):
        self._by_call: dict[str, list[EntryPoint]] = {}
        for entry in entries:
            for name in entry.calls:
                self._by_call.setdefault(name, []).append(entry)
        self._defs = {}
        for entry in entries:
            for qualname in (entry.qualname, *entry.aliases):
                self._defs[(entry.path, qualname)] = entry
        self._owners = {entry.owner: entry for entry in entries
                        if entry.owner is not None}
        self._group = group
        self._path = path
        self._dicts, self._tables = _dict_literals(tree)
        self._unresolved = unresolved
        self._scope: list[str] = []
        #: (entry point whose options are forwardable here, its class).
        self._context: list[tuple[EntryPoint | None, EntryPoint | None]] = \
            [(None, None)]

    def visit_ClassDef(self, node: ast.ClassDef):
        self._scope.append(node.name)
        owner = self._owners.get(node.name)
        if owner is not None and owner.path != self._path:
            owner = None
        self._context.append((None, owner))
        self.generic_visit(node)
        self._context.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef):
        self._scope.append(node.name)
        qualname = ".".join(self._scope)
        entry = self._defs.get((self._path, qualname))
        self._context.append((entry, self._context[-1][1]))
        self.generic_visit(node)
        self._context.pop()
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _forwarded(self, value: ast.AST) -> tuple[str, str] | None:
        """The (entry point, option) a value passes on, if any."""
        entry, owner = self._context[-1]
        if (entry is not None and isinstance(value, ast.Name)
                and value.id in entry.options):
            return entry.label, value.id
        if (owner is not None and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            name = value.attr.lstrip("_")
            if name in owner.options:
                return owner.label, name
        return None

    def _set(self, entry: EntryPoint, name: str, value: ast.AST):
        option = entry.options.get(name)
        if option is None:
            return
        source = self._forwarded(value)
        if source is not None:
            option.sources.add(source)
        else:
            option.record(self._group, value)

    def visit_Call(self, node: ast.Call):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        candidates = self._by_call.get(name, [])
        current = self._context[-1][0]
        candidates = [entry for entry in candidates if entry is not current]
        if candidates:
            self._count(node, candidates)
        self.generic_visit(node)

    def _count(self, node: ast.Call, candidates: list[EntryPoint]):
        positional = [arg for arg in node.args
                      if not isinstance(arg, ast.Starred)]
        fitting = [entry for entry in candidates
                   if entry.required <= len(positional)
                   <= len(entry.positional)]
        if fitting:
            binder = max(fitting, key=lambda entry: entry.required)
            for param, value in zip(binder.positional, positional):
                self._set(binder, param, value)
        for keyword in node.keywords:
            if keyword.arg is not None:
                for entry in candidates:
                    self._set(entry, keyword.arg, keyword.value)
                continue
            splat = keyword.value
            tables = self._dicts
            if isinstance(splat, ast.Subscript):
                splat, tables = splat.value, self._tables
            table = (tables.get(splat.id) if isinstance(splat, ast.Name)
                     else None)
            if table is None:
                self._unresolved.append(
                    f"{self._path}:{node.lineno} {candidates[0].label}(**...)")
                continue
            for arg, value in table.items():
                for entry in candidates:
                    self._set(entry, arg, value)


def census(root: Path = ROOT) -> tuple[list[EntryPoint], list[str]]:
    entries = load_entry_points(root)
    unresolved: list[str] = []
    for group in GROUPS:
        base = root / group
        for path in sorted(base.rglob("*.py")):
            relative = str(path.relative_to(root))
            if group == "src":
                relative = str(path.relative_to(base / "repro"))
            tree = ast.parse(path.read_text(), filename=str(path))
            _Census(entries, group, relative, tree, unresolved).visit(tree)
    return entries, unresolved


def effective_groups(entries: list[EntryPoint]) -> dict:
    """(entry point, option) -> group -> default-only, forwards
    followed to a fixpoint (a forwarded value counts as non-default)."""
    options = {(entry.label, option.name): option
               for entry in entries for option in entry.options.values()}
    groups = {key: dict(option.direct) for key, option in options.items()}
    changed = True
    while changed:
        changed = False
        for key, option in options.items():
            for source in option.sources:
                for group in list(groups[source]):
                    if groups[key].get(group, True):
                        groups[key][group] = False
                        changed = True
    return groups


def main() -> int:
    entries, unresolved = census()
    groups = effective_groups(entries)
    total = sum(len(entry.options) for entry in entries)
    width = max(len(name) for entry in entries for name in entry.options)
    print(f"{len(entries)} entry points, {total} keyword options "
          f"(caller groups: {' '.join(GROUPS)})")
    test_only = []
    for entry in entries:
        print(f"\n{entry.label}  [src/repro/{entry.path}]  "
              f"{len(entry.options)} options")
        for name in entry.options:
            setters = groups[(entry.label, name)]
            listed = [group for group in GROUPS if group in setters]
            mark = ""
            if setters and all(setters.values()):
                mark = "  (default only)"
            print(f"  {name:<{width}}  {' '.join(listed) or '-'}{mark}")
            if set(listed) <= {"tests"}:
                test_only.append(f"{entry.label}({name}=)")
    shared = {}
    for entry in entries:
        for call in entry.calls:
            shared.setdefault(call, []).append(entry.label)
    print()
    for call, labels in shared.items():
        if len(labels) > 1:
            print(f"note: `{call}` is the call name of {' and '.join(labels)};"
                  " receivers are not resolved, so a keyword counts for each")
    for line in unresolved:
        print(f"unresolved splat: {line}")
    print(f"\ntotal: {total} keyword options on {len(entries)} entry points; "
          f"{len(test_only)} set by no caller outside tests:")
    for name in test_only:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
