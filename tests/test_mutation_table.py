"""The mutation probe's table stays in step with the source it mutates.

The probe itself runs the whole suite once per row and takes minutes; this
check is fast, so a change that moves or rewrites mutated text fails here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_table() -> list:
    spec = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe.MUTANTS


def test_every_row_matches_once_and_is_explained():
    failures = []
    for file, old, new, expected, reason in load_table():
        count = (ROOT / "src" / "sagnacsim" / file).read_text().count(old)
        if count != 1:
            failures.append(f"{file}: {old!r} occurs {count} times")
        if old == new:
            failures.append(f"{file}: {old!r} is not changed")
        if expected not in ("caught", "equivalent"):
            failures.append(f"{file}: {old!r} expects {expected!r}")
        if expected == "equivalent" and not reason.strip():
            failures.append(f"{file}: {old!r} is marked equivalent without a reason")
    assert not failures, "; ".join(failures)
