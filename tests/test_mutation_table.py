"""The mutation probe's mutants stay in step with the source they mutate.

The probe itself runs the suite once per mutant and takes minutes; these
checks are fast, so a change that moves or rewrites mutated text fails here.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sagnacsim"


def load_probe():
    spec = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def raise_lines() -> set:
    """(file, line) of every ``raise``, and of the header of every ``if`` whose body is one."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.Raise) or (isinstance(node, ast.If) and not node.orelse
                                               and [type(s) for s in node.body] == [ast.Raise]):
                found.add((path.name, node.lineno))
    return found


def test_every_row_matches_once_and_is_explained():
    failures = []
    for file, old, new, expected, reason in load_probe().MUTANTS:
        count = (SRC / file).read_text().count(old)
        if count != 1:
            failures.append(f"{file}: {old!r} occurs {count} times")
        if old == new:
            failures.append(f"{file}: {old!r} is not changed")
        if expected not in ("caught", "equivalent"):
            failures.append(f"{file}: {old!r} expects {expected!r}")
        if expected == "equivalent" and not reason.strip():
            failures.append(f"{file}: {old!r} is marked equivalent without a reason")
    assert not failures, "; ".join(failures)


def test_no_row_restates_a_generated_mutant():
    # making a raise pass, or its lone guard False, is what the raise's generated mutant does
    raises, restated = raise_lines(), []
    for file, old, new, _, _ in load_probe().MUTANTS:
        source = (SRC / file).read_text()
        line = source[:source.find(old)].count("\n") + 1
        if new.strip() in ("pass", "if False:", "elif False:") and (file, line) in raises:
            restated.append(f"{file}:{line}: {old!r} -> {new!r}")
    assert not restated, restated


def test_every_generated_mutant_compiles():
    probe = load_probe()
    generated = probe.mutants(SRC)[:-len(probe.MUTANTS)]  # the table's rows come last
    assert generated
    for file, start, end, new, _, _ in generated:
        source = (SRC / file).read_bytes()
        assert isinstance(ast.parse(source[start:end].decode().strip()).body[0], ast.Raise)
        compile(source[:start] + new.encode() + source[end:], file, "exec")
