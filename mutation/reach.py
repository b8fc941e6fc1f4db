"""pytest plugin (``-p reach``): the lines of ``src/sagnacsim``, under the working directory,
that each test runs from setup to teardown (``sys.settrace``).  It writes ``reach.json``:
``tests``, the node ids in run order, and ``lines``, ``{"file.py:line": [test indices]}``."""

import json
import os
import sys
from collections import defaultdict

SRC = os.path.join(os.getcwd(), "src", "sagnacsim", "")
tests, reached = [], defaultdict(set)  # reached: (path, line) -> indices into tests


def _trace(frame, event, arg):
    if event == "call" and not frame.f_code.co_filename.startswith(SRC):
        return None
    reached[frame.f_code.co_filename, frame.f_lineno].add(len(tests) - 1)
    return _trace


def pytest_runtest_logstart(nodeid):
    tests.append(nodeid)
    sys.settrace(_trace)


def pytest_runtest_logfinish():
    sys.settrace(None)


def pytest_sessionfinish():
    lines = {f"{os.path.basename(path)}:{n}": sorted(i) for (path, n), i in reached.items()}
    with open("reach.json", "w") as out:
        json.dump({"tests": tests, "lines": lines}, out)
