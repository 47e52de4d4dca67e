"""Every public function, class, method and property of the package has a
caller in the package or the benchmark, or a reason to exist on the list
below; every private function, class, constant and method has a caller,
with no exceptions.

A definition that only tests name is code that the pipeline never runs: a
wrapper kept alive by its own test, or a helper that outlived its last
caller. Names are matched as identifiers, so a method counts as used when
any attribute of that name is read anywhere in ``src/`` or ``bench/``; a
string constant equal to the name counts too (the benchmark's tracer wraps
attributes by name). Assigning a name does not count, and neither do
comments and docstrings. The package's ``__init__`` imports its public
names, so those count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "c2bnvae"

ALLOWED = {
    # click commands, reached through the group that registers them
    "cli.cmd_count": "a CLI command",
    "cli.cmd_preprocess": "a CLI command",
    "cli.cmd_report": "a CLI command",
    "cli.cmd_run_all": "a CLI command",
    "cli.cmd_train_gen": "a CLI command",
    # documented entry points for a reader of the package
    "dtree.export_text": "the printable form of a fitted tree",
    "nslkdd.synthetic_schema": "the schema of a toy matrix that never saw raw "
                               "records; the tracer tests build datasets with it",
    # bench/spans.py imports autodiff and wraps Tensor.backward; the tape and
    # these helpers move under tests/ with the next change to the benchmark
    "autodiff.concat": "part of the tape the tracer imports",
    "autodiff.gradients": "part of the tape the tracer imports",
    "autodiff.Tensor.item": "part of the tape the tracer imports",
    "autodiff.Tensor.take_rows": "part of the tape the tracer imports",
}


def public_definitions() -> dict[str, str]:
    """``module.name`` or ``module.Class.name`` -> the bare name, for each
    public top-level function and class, and each public method and
    property of a public class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        found[f"{path.stem}.{node.name}.{member.name}"] = member.name
    return found


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions() -> dict[str, str]:
    """The same map for each private top-level function, class and
    constant, and each private method of any class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            found.update({f"{path.stem}.{name}": name for name in names if private(name)})
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and private(member.name):
                        found[f"{path.stem}.{node.name}.{member.name}"] = member.name
    return found


def names_used() -> set[str]:
    """Every identifier that code in ``src/`` or ``bench/`` reads, imports
    or spells as a string constant."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    used.add(node.value)
    return used


def test_every_public_definition_has_a_caller():
    used = names_used()
    unused = sorted(qualified for qualified, name in public_definitions().items()
                    if name not in used and qualified not in ALLOWED)
    assert unused == [], ("named only at their definition (delete them, or give "
                          f"the reason in ALLOWED): {unused}")


def test_every_private_definition_has_a_caller():
    used = names_used()
    unused = sorted(qualified for qualified, name in private_definitions().items()
                    if name not in used)
    assert unused == [], f"named only at their definition (delete them): {unused}"


def test_allowed_entries_are_defined_and_still_uncalled():
    defined, used = public_definitions(), names_used()
    stale = sorted(q for q in ALLOWED if q not in defined or defined[q] in used)
    assert stale == [], f"ALLOWED entries that are gone or now called: {stale}"
