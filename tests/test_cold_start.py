"""No run imports sympy: polynomial data, and fraction data whose exact
gcds run in-house, leave it unloaded.

Each case runs in a fresh interpreter, since the test process itself has
sympy loaded (the coefficient tests use it as their oracle).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import superproj.cli as cli
import scenario_gen


def run(text):
    cli.emit_report(cli.run_checks(cli.parse_scenario(text)), "json")


for name in {scenarios!r}:
    run(open({root!r} + "/scenarios/" + name + ".json").read())
for workload in {workloads!r}:
    for index in range(scenario_gen.round_size(workload)):
        run(scenario_gen.case(workload, 301, index).text)
print("sympy" in sys.modules)
"""


def sympy_loaded(scenarios=(), workloads=()) -> bool:
    code = RUN.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                      root=str(ROOT), scenarios=list(scenarios),
                      workloads=list(workloads))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, check=True).stdout
    return {"True": True, "False": False}[out.strip()]


def test_import_and_polynomial_runs_leave_sympy_unloaded():
    assert not sympy_loaded(
        scenarios=("thomas_2_2", "bv_darboux_1_1", "error_isolation"),
        workloads=("geometry_changes", "brackets_bv"))


def test_fraction_runs_leave_sympy_unloaded():
    assert not sympy_loaded(scenarios=("rational_1_1",),
                            workloads=("rational_coeffs",))


# What `import superproj.cli` adds to a fresh CPython 3.11 interpreter,
# besides superproj itself.  Dropping a module from this set passes; a new
# import fails, since each spawn pays for what it loads.
CLI_IMPORTS = set("""
__future__ _ast _decimal _json _opcode argparse ast copy dataclasses decimal
dis fractions gettext importlib.machinery inspect json json.decoder
json.encoder json.scanner linecache numbers opcode token tokenize
""".split())

NEW_MODULES = """
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import superproj.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_adds_no_module_outside_todays_set():
    code = NEW_MODULES.format(src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    added = {name for name in out.split()
             if name != "superproj" and not name.startswith("superproj.")}
    assert added <= CLI_IMPORTS, sorted(added - CLI_IMPORTS)
