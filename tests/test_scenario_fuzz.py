"""Mutated bundled scenarios: `superproj validate` and `superproj run` end
with exit code 0 or 1, never with an exception or an internal error, and
within a time bound per case.

Each example takes one bundled scenario and replaces, deletes or renames one
node of its JSON tree, the new value drawn from wrong types, out-of-range
indices and bad expressions.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superproj.cli import main

SCENARIOS = {path.name: json.loads(path.read_text(encoding="utf-8"))
             for path in sorted((Path(__file__).resolve().parent.parent
                                 / "scenarios").glob("*.json"))}

BAD_VALUES = (
    # wrong types
    None, True, 0, -1, 3.5, 10 ** 30, "", "odd", [], [1, "x"], {}, {"a": 1},
    # out-of-range indices and dimensions
    "0", "9", "99,1", "1,99", "0,0,0", "1,2,3,4", "-1,1", "a,b", 1000,
    {"n": 99, "m": 99}, {"n": -1, "m": 0},
    # bad expressions
    "x9", "th9", "x1 +", "(x1", "x1)", "1/0", "1/th1", "th1^-1", "x1^17",
    "x1^x1", "2^-0", "x1 ** 2", "1e5", "((x1+x2+x3+x4)^16)^16",
    "((((((2)^16)^16)^16)^16)^16)^16", "x1/(x1-x1)", "th1*th1/x1", "1/2/0",
)
BAD_KEYS = ("", "0", "9,9", "1,2,3,4", "a,b", "nonsense", "check")


def nodes(tree, path=()):
    """Every (path, value) below the root, depth first."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def mutated(doc, path, action, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if action == "delete":
        del parent[last]
    elif action == "rename" and isinstance(parent, dict):
        parent[value if isinstance(value, str) else str(value)] = parent.pop(last)
    else:
        parent[last] = copy.deepcopy(value)
    return out


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    doc = SCENARIOS[name]
    paths = [path for path, _ in nodes(doc)]
    path = draw(st.sampled_from(paths))
    action = draw(st.sampled_from(("replace", "delete", "rename")))
    pool = BAD_KEYS if action == "rename" else BAD_VALUES
    return name, mutated(doc, path, action, draw(st.sampled_from(pool)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=5))
@given(mutations())
def test_mutated_scenario_exits_cleanly(scratch, case):
    name, doc = case
    scratch.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "run"):
        code, err = run_cli([command, str(scratch)])
        assert code in (0, 1), (name, command, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("scenario error: "), (name, command, err)

