"""Import layering of the package, read from the source files' syntax trees."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "procsem"


def procsem_imports(module: str) -> set[str]:
    """Names of the procsem modules that `module` imports."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # Relative imports inside the package resolve against `procsem`.
            base = ".".join(filter(None, ["procsem" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("procsem."))
    return found


def test_reader_sees_the_known_imports():
    assert {"taskgen", "promptgen", "tree_dsl"} <= procsem_imports("fileio")


def test_fileio_imports_neither_scoring_nor_cli():
    assert not procsem_imports("fileio") & {"evaluation", "cli"}


def procsem_names(module: str) -> set[str]:
    """Names that `module` imports from other procsem modules."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("procsem"))
        for alias in node.names
    }


def test_reader_sees_the_imported_names():
    assert {"parse_tree", "ProcessModel", "TaskRecord"} <= procsem_names("fileio")


def test_fileio_plays_nothing_out():
    # Only `taskgen` plays a model out; the writers take what they are given.
    assert not procsem_names("fileio") & {"played_out", "playout", "language"}


def test_core_imports_no_other_procsem_module():
    assert procsem_imports("core") == set()


def test_workers_import_no_other_procsem_module():
    assert procsem_imports("workers") == set()


def test_runtime_imports_only_stdlib():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    outside: set[str] = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            # `multiprocessing` alone would add to the peak memory of every
            # stage; `workers` forks with `os`.
            outside.update(
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
                or name.split(".")[0] == "multiprocessing"
            )
    assert outside == set()


def test_no_module_imports_dataclasses():
    # Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and each
    # decorated class is generated by compiling code at import: a fixed
    # cost of every CLI stage. procsem's value types are `core.Frozen`s.
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    importers = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importers.add(path.name)
    assert importers == set()


def attributes_read(module: str) -> set[str]:
    """Names of the attributes that `module` reads or writes on any object."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_semantics_reads_relations_off_the_tree_alone():
    # `tree_relations` is the one relation engine: a played-out model is read
    # through its tree, never through its sequences, and the tree is walked
    # by `core.fold_tree`, never by hand.
    attributes = attributes_read("semantics")
    assert "tree" in attributes and "children" in attributes_read("core")
    assert not {"sequences", "children"} & attributes


def module_functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_relations_are_read_off_a_bare_tree():
    # Mapping predicted labels onto gold activities is scoring's, so the
    # relation engine takes the tree and nothing else.
    functions = module_functions("semantics")
    for name in ("tree_relations", "dfg_of_model", "eventually_follows"):
        arguments = functions[name].args
        assert [a.arg for a in arguments.args] == ["tree"], name
        assert not (arguments.kwonlyargs or arguments.vararg or arguments.kwarg), name


def calls_itself(function: ast.FunctionDef, method: bool) -> bool:
    """Whether `function` calls itself: by its bare name, or as
    `self.<name>` when it is a method; a `super()` call does not count."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if method:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == function.name
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return True
        elif isinstance(target, ast.Name) and target.id == function.name:
            return True
    return False


def self_calling_functions(module: str) -> set[str]:
    """Dotted names of the functions and methods of `module`, nested ones
    included, that call themselves."""
    found: set[str] = set()

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                if calls_itself(child, in_class):
                    found.add(f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8")), f"{module}.", False)
    return found


def test_no_function_calls_itself():
    # Every tree walk is `core.fold_tree`, which keeps its own stack. Only
    # the parser recurses, at most `tree_dsl.MAX_DEPTH` deep, and synth's
    # builder, at most six levels deep.
    found = set().union(*(self_calling_functions(p.stem) for p in PACKAGE_DIR.glob("*.py")))
    assert found == {"tree_dsl._Parser.parse_tree", "synth._build"}


def json_names(module: str) -> set[str]:
    """Dotted names that `module` imports from, or reads off, the `json`
    package and its C accelerator `_json`."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(ast.unparse(node))
    return {name for name in found if name.split(".")[0] in ("json", "_json")}


def test_reader_sees_the_json_names():
    assert "json.encoder.encode_basestring" in json_names("fileio")


def test_fileio_uses_only_public_json_names():
    # `_json`, underscored names and the `c_*` accelerator hooks may change
    # between Python releases; the row encoder rests on public names only.
    private = {
        name
        for name in json_names("fileio")
        if any(part.startswith(("_", "c_")) for part in name.split("."))
    }
    assert private == set()


def test_fileio_spells_rows_one_way():
    # Every row is spelled from `encode_basestring`; a `JSONEncoder` or
    # `json.dump(s)` beside it would be a second spelling path.
    second_paths = {"json.JSONEncoder", "json.encoder.JSONEncoder", "json.dumps", "json.dump"}
    assert not json_names("fileio") & second_paths


def called_names(function: ast.FunctionDef) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_subcommand_has_one_shape():
    # A handler takes (args, config) and returns its summary; reading the
    # config, printing the summary and choosing the exit code are `main`'s.
    handlers = {name: f for name, f in module_functions("cli").items() if name.startswith("cmd_")}
    assert len(handlers) == 8
    for name, function in handlers.items():
        assert [a.arg for a in function.args.args] == ["args", "config"], name
        assert not called_names(function) & {"_emit", "print", "build_config"}, name
        exit_codes = {
            node.id
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and node.id.startswith("EXIT_")
        }
        assert exit_codes == set(), name


def test_main_alone_reads_the_config_and_emits_the_summary():
    callers = {
        name
        for name, function in module_functions("cli").items()
        if called_names(function) & {"_emit", "build_config"}
    }
    assert callers == {"main"}


def test_baseline_leaves_the_task_check_to_the_baselines():
    # The baselines reject a task they cannot answer, with the message the
    # CLI prints, so `cmd_baseline` only picks one.
    task_names = {
        ast.unparse(node)
        for node in ast.walk(module_functions("cli")["cmd_baseline"])
        if (isinstance(node, ast.Attribute) and ast.unparse(node.value) == "Task")
        or (isinstance(node, ast.Name) and node.id.endswith("_TASKS"))
    }
    assert task_names == set()
