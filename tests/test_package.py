"""The package surface, and which layers each command and name loads.

One table in ``medsens/__init__.py`` names the whole public surface, each
name under the module that owns it, and the package resolves every name
through that table. ``bootstrap``, ``loglinear`` and ``oracle`` are in
``sys.modules`` from the first import of ``medsens``, and their code runs on
first attribute access. The load checks run in a fresh interpreter, so that
the imports of this test session cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import medsens

#: the public names of the package, each re-exported from its module
PUBLIC = {
    "bootstrap": ["BootstrapResult", "run_bootstrap"],
    "bounds": [
        "CornfieldThresholds", "SensitivitySpec", "adjust", "bound_report", "bounding_factor",
        "cornfield_rd", "cornfield_rr", "effects_from_sums", "required_partner",
        "stratum_envelopes",
    ],
    "errors": [
        "BadCode", "BadParameter", "BadTarget", "DegenerateResample", "EmptyCell", "Infeasible",
        "InternalCheckError", "MedsensError", "NotNormalized", "OutOfRangeProbability",
        "ParseError", "UnreachableCell", "ZeroDenominator", "ZeroProbability",
    ],
    "loglinear": ["LogLinearSpec", "collider_ratio_grid", "interaction_bound", "rr_au_loglinear"],
    "oracle": [
        "InequalityCheck", "Scm", "SharpnessReport", "ValidityReport", "observed_model",
        "recipe_scm", "rr_au_mediator_ratio", "rr_au_posterior", "rr_uy",
        "sample_ratio_instances", "sample_scm", "sharpness_search", "validity_battery",
        "verify_bounds",
    ],
    "tables": [
        "RecordTable", "crossworld_sums", "estimate_from_records", "read_records_csv",
    ],
}

#: the lazy layers whose code has run: a ``LazyLoader`` module changes its type when it runs
EXECUTED = """
import json, sys, types
import medsens

def executed():
    return [n for n in ("bootstrap", "loglinear", "oracle")
            if type(sys.modules["medsens." + n]) is types.ModuleType]
"""

#: runs each argv list through ``medsens.cli.main`` and prints, as JSON, the lazy
#: layers executed after the import and after each command, with its exit code
SCRIPT = EXECUTED + """
import contextlib, io
import medsens.cli

seen = [executed()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([medsens.cli.main(argv), executed()])
print(json.dumps(seen))
"""


def layers_executed(tmp_path, *commands):
    """Run ``commands``, with ``{csv}`` standing for a small record file, in a fresh interpreter."""
    csv = tmp_path / "d.csv"
    csv.write_text("a,m,y,c,count\n" + "".join(
        f"{a},{m},{y},{c},{1 + a + 2 * m + 3 * y + c}\n"
        for a in range(2) for m in range(2) for y in range(2) for c in range(2)))
    commands = [[arg.format(csv=csv) for arg in argv] for argv in commands]
    return run_fresh(SCRIPT, json.dumps(commands))


def run_fresh(script, arg):
    """The JSON that ``script`` prints, run with ``arg`` in a fresh interpreter on this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script, arg],
                          capture_output=True, text=True, env=env)
    assert done.stderr == ""
    return json.loads(done.stdout)


def test_closed_form_commands_execute_no_lazy_layer(tmp_path):
    commands = (
        ["estimate", "--csv", "{csv}"],
        ["bound", "--csv", "{csv}", "--rr-au", "2", "--rr-uy", "2"],
        ["bound", "--nde-rr", "1.5", "--rr-au", "2", "--rr-uy", "2"],
        ["sweep", "--csv", "{csv}", "--rr-au-grid", "1,2", "--rr-uy-grid", "1,2"],
        ["cornfield", "--csv", "{csv}"],
        ["cornfield", "--nde-rr", "1.72"],
    )
    assert layers_executed(tmp_path, *commands) == [[]] + [[0, []]] * len(commands)


@pytest.mark.parametrize("argv, executed", [
    (["oracle", "--iterations", "50", "--seed", "3"], ["oracle"]),
    (["parametric"], ["loglinear", "oracle"]),
    (["bootstrap", "--csv", "{csv}", "--replicates", "200", "--seed", "1"], ["bootstrap"]),
], ids=["oracle", "parametric", "bootstrap"])
def test_each_command_executes_only_the_layers_it_uses(tmp_path, argv, executed):
    assert layers_executed(tmp_path, argv) == [[], [0, executed]]


@pytest.mark.parametrize("name, executed", [
    ("adjust", []),
    ("RecordTable", []),
    ("BadParameter", []),
    ("sample_scm", ["oracle"]),
    ("run_bootstrap", ["bootstrap"]),
    ("rr_au_loglinear", ["loglinear", "oracle"]),
])
def test_each_name_executes_only_the_layers_its_module_uses(name, executed):
    script = EXECUTED + "getattr(medsens, sys.argv[1])\nprint(json.dumps(executed()))\n"
    assert run_fresh(script, name) == executed


def test_all_names_the_public_surface():
    assert sorted(medsens.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert set(medsens.__all__) <= set(dir(medsens))


def test_each_name_is_its_module_attribute():
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(medsens, name) is getattr(getattr(medsens, module), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from medsens import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(medsens.__all__)


def test_cli_refers_to_the_registered_modules():
    # the identity perfbench's tracer relies on when it wraps a module attribute
    import medsens.cli

    assert medsens.cli.oracle is sys.modules["medsens.oracle"]
    assert medsens.cli.loglinear is sys.modules["medsens.loglinear"]
    assert medsens.cli.bootstrap_mod is sys.modules["medsens.bootstrap"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        medsens.nonesuch
    assert not hasattr(medsens, "oracle_battery")
