"""Import hygiene and the lazy public surface.

A simulation loads only what it runs: the paper-table, serve and CLI
entry points load no networkx and none of the verification, static
analysis, worm-hole, fault or figure modules.  Each check runs in a
fresh interpreter, because this test process has loaded everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

#: Modules no simulation entry point may load (prefix match).
FORBIDDEN = (
    "networkx",
    "repro.statics",
    "repro.wormhole",
    "repro.faults",
    "repro.core.verification",
    "repro.core.qdg",
    "repro.analysis.figures",
)

#: Every package with a lazy ``__all__``.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.node",
    "repro.routing",
    "repro.serve",
    "repro.sim",
    "repro.statics",
    "repro.telemetry",
    "repro.topology",
    "repro.wormhole",
)


def _python(code: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )


def _loaded_by(module: str) -> list[str]:
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    return json.loads(_python(code).stdout)


@pytest.mark.parametrize(
    "module",
    [
        "repro.experiments.runner",
        "repro.experiments.paper",
        "repro.serve.service",
        "repro.cli",
    ],
)
def test_entry_point_loads_no_graph_or_analysis_stack(module):
    loaded = _loaded_by(module)
    assert [m for m in loaded if m.startswith(FORBIDDEN)] == []
    if module != "repro.serve.service":
        assert [m for m in loaded if m.startswith("repro.serve")] == []
    # The live endpoint's HTTP server loads only when a run serves one.
    assert "http.server" not in loaded


_NO_NETWORKX = 'import sys; sys.modules["networkx"] = None\n'


def test_table_cell_runs_without_networkx():
    out = _python(
        _NO_NETWORKX
        + "from repro.experiments.paper import PAPER_TABLES\n"
        "r = PAPER_TABLES[9].experiment(5, 1).run(5)\n"
        "print(r.delivered > 0)\n"
    )
    assert out.stdout.split() == ["True"]


def test_smoke_scenario_serves_without_networkx():
    pytest.importorskip("yaml")
    out = _python(
        _NO_NETWORKX
        + "from repro.serve.scenario import load_scenario\n"
        "from repro.serve.service import TrafficService\n"
        "svc = TrafficService(load_scenario('examples/scenarios/smoke.yaml'))\n"
        "print(svc.serve(), svc.result.delivered > 0)\n"
    )
    assert out.stdout.split() == ["0", "True"]


#: Modules of the families a mesh service does not run (prefix match).
OTHER_FAMILIES = (
    "repro.routing.shuffle_exchange",
    "repro.topology.shuffle_exchange",
    "repro.routing.torus",
    "repro.topology.torus",
)


def test_mesh_service_loads_no_other_family():
    """The serve name tables resolve a family's modules on use, so a
    mesh scenario served end to end never loads the shuffle-exchange or
    torus modules."""
    out = _python(
        "import json, sys\n"
        "from repro.serve.scenario import parse_scenario\n"
        "from repro.serve.service import TrafficService\n"
        "svc = TrafficService(parse_scenario({\n"
        "    'name': 'm', 'seed': 1,\n"
        "    'topology': {'family': 'mesh', 'size': 4},\n"
        "    'populations': [{'name': 'p', 'users': {'mean': 10},\n"
        "                     'rate_per_user': 0.05}],\n"
        "    'service': {'duration_cycles': 40, 'tick_cycles': 10},\n"
        "}))\n"
        "code = svc.serve()\n"
        "print(json.dumps([code, svc.result.delivered, sorted(sys.modules)]))\n"
    )
    code, delivered, loaded = json.loads(out.stdout)
    assert code == 0 and delivered > 0
    assert "repro.routing.mesh" in loaded
    assert [m for m in loaded if m.startswith(OTHER_FAMILIES)] == []


def test_graph_builders_import_networkx_on_first_use():
    out = _python(
        "import sys\n"
        "from repro.core.verification import verify_algorithm\n"
        "from repro.routing.hypercube import HypercubeAdaptiveRouting\n"
        "from repro.topology.hypercube import Hypercube\n"
        "print('networkx' in sys.modules)\n"
        "g = Hypercube(3).to_networkx()\n"
        "print(g.number_of_nodes(), g.number_of_edges())\n"
        "r = verify_algorithm(HypercubeAdaptiveRouting(Hypercube(3)))\n"
        "print(r.deadlock_free)\n"
    )
    assert out.stdout.split() == ["False", "8", "24", "True"]


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve_and_are_listed(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        assert getattr(mod, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        getattr(mod, "no_such_name")


def test_lint_all_output_is_unchanged():
    """``repro lint --all`` prints what the golden file holds, byte for
    byte, and passes its gate."""
    out = _python(
        "import sys\n"
        "from repro.cli import main\n"
        "sys.exit(main(['lint', '--all']))\n",
        PYTHONHASHSEED="0",
    )
    golden = (Path(__file__).parent / "golden" / "lint_all.txt").read_text()
    assert out.stdout == golden
