"""Everything defined in ``src/globalloops`` is used by the program.

Each function, class and method defined there must be referenced from
``src/``, or be named in ``ALLOWED`` with the reason it stays.  A function
or class counts as referenced when its name is loaded (after an import) or
read as ``module.name``; a method or property when an attribute of its name
is read anywhere.  Names match by spelling, not by type, so two methods of
one name share their references.  Dunder methods are called by the
language and are not checked.

Every parameter with a default there must be passed, by keyword or by
position, in some call in ``src/`` to a function or method of its name
(the class name for ``__init__``), or be named in ``ALLOWED_OPTIONS`` with
a reason: an option no caller sets is code nobody runs.

Every field of a record there (a ``@dataclass`` or a ``NamedTuple``
subclass), and every attribute that an ``__init__`` there sets on its
instance, must likewise be read as an attribute somewhere in ``src/``, or
be named in ``ALLOWED_FIELDS`` with a reason: a field that is only written
is a copy nobody needs.

Every module there but the entry points, ``__init__`` and ``cli``, must be
imported by another of its modules, at module level or inside a function:
a module nothing imports is code nobody runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "globalloops"

ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "meshio.report_dict": "the report as data for library callers; perfbench's tests read it",
    "meshio.render_report": "the text of report data for library callers; perfbench's "
    "tests compare it with the report",
}

ALLOWED_OPTIONS = {
    "cli.main.argv": "None, as the console script passes, reads sys.argv and lets main "
    "own the process (collector frozen and off); tests and embedding callers pass their "
    "own arguments and keep their collector as it was",
    "meshio.report_dict.verification": "library callers and perfbench's tests ask for "
    "the verification block",
}

ALLOWED_FIELDS = {
    **{
        f"oracle.VerificationReport.{name}": "meshio._summary serializes it "
        "through _asdict"
        for name in (
            "betti1_relative",
            "generator_count",
            "cocycle_ok",
            "independence_ok",
            "torsion_coefficients",
            "dimension_formula_ok",
        )
    },
    **{
        f"errors.{name}.line": "tests and library callers read the line "
        "number of a parse error"
        for name in ("OffParseError", "ContactSpecError")
    },
}

ENTRY_POINTS = {"__init__", "cli"}


def sources():
    """(path, parsed module) of each file of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text())


def definitions(body, owner: str, in_class: bool = False):
    """(qualified name, is a method, node) of each def and class in
    ``body``, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{owner}.{node.name}"
            is_class = isinstance(node, ast.ClassDef)
            yield name, in_class and not is_class, node
            yield from definitions(node.body, name, is_class)


def unreferenced() -> set[str]:
    defined, names, attrs, qualified = [], set(), set(), set()
    for path, tree in sources():
        defined += definitions(tree.body, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add(f"{node.value.id}.{node.attr}")
    out = set()
    for name, is_method, _ in defined:
        module, short = name.split(".")[0], name.rpartition(".")[2]
        if short.startswith("__") and short.endswith("__"):
            continue
        if is_method:
            used = short in attrs
        else:
            used = short in names or f"{module}.{short}" in qualified
        if not used:
            out.add(name)
    return out


def unpassed_options() -> set[str]:
    """The parameters with a default that no call in ``src/`` passes."""
    calls = {}  # callee name: (positions passed, keywords passed) per call
    for _, tree in sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                keywords = {k.arg for k in node.keywords}  # None for a ** argument
                calls.setdefault(callee, []).append(
                    (float("inf") if starred else len(node.args), keywords)
                )
    out = set()
    for path, tree in sources():
        for name, is_method, node in definitions(tree.body, path.stem):
            owner, _, short = name.rpartition(".")
            if isinstance(node, ast.ClassDef) or (short.startswith("__") and short != "__init__"):
                continue
            callee = owner.rpartition(".")[2] if short == "__init__" else short
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            # A method's receiver is not among a call's arguments.
            options = [(arg.arg, i - is_method) for i, arg in enumerate(positional) if i >= first]
            options += [
                (arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for option, position in options:
                if not any(
                    option in keywords or None in keywords
                    or position is not None and count > position
                    for count, keywords in calls.get(callee, ())
                ):
                    out.add(f"{name}.{option}")
    return out


def is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple`` subclass: its annotated names
    are its fields."""
    return any(
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None) == "dataclass"
        for dec in node.decorator_list
    ) or any(
        getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
        for base in node.bases
    )


def field_names(node: ast.ClassDef):
    """The fields of a record, and the attributes its ``__init__`` sets on
    its first argument."""
    if is_record(node):
        yield from (item.target.id for item in node.body if isinstance(item, ast.AnnAssign))
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            this = item.args.args[0].arg
            for target in ast.walk(item):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and getattr(target.value, "id", None) == this
                ):
                    yield target.attr


def unread_fields() -> set[str]:
    fields, read = [], set()
    for path, tree in sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                fields += [f"{path.stem}.{node.name}.{name}" for name in field_names(node)]
    return {name for name in fields if name.rpartition(".")[2] not in read}


def imported_modules() -> set[str]:
    """The modules of the package that another of its modules imports, at
    module level or inside a function; the package imports itself by
    relative imports only."""
    found = set()
    for path, tree in sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # ``from .x import a`` imports x, ``from . import x, y`` x and y.
                names = [node.module] if node.module else [alias.name for alias in node.names]
                found.update(set(names) - {path.stem})
    return found


def test_every_module_is_imported_by_another():
    modules = {path.stem for path, _ in sources()}
    assert modules - imported_modules() - ENTRY_POINTS == set()


def test_every_definition_has_a_caller_or_a_reason():
    # Equality, not inclusion: a name that gains a caller or goes leaves
    # the allowlist with it.
    assert unreferenced() == set(ALLOWED)


def test_every_option_has_a_caller_or_a_reason():
    assert unpassed_options() == set(ALLOWED_OPTIONS)


def test_every_dataclass_field_has_a_reader_or_a_reason():
    assert unread_fields() == set(ALLOWED_FIELDS)
