"""A command loads only the code it runs.

Packages re-export lazily (``repro.lazy_exports``), so importing one runs
none of its submodules; these tests pin what a fresh interpreter loads
for a plain serial campaign, for the checker's property module and for
the CLI, and that every public name still resolves.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: modules a plain serial campaign never runs
NOT_IN_A_CAMPAIGN = (
    "repro.campaign.ablation.grid",
    "repro.campaign.ablation.kernels",
    "repro.campaign.ablation.refine",
    "repro.campaign.ablation.frontier",
    "repro.campaign.experiment",
    "repro.obs.summarize",
    "repro.core.multi_round_deal",
    "repro.checker.explorer",
)


def loaded_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps([m for m in sys.modules if m.split('.')[0] == 'repro']))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-800:]
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_a_plain_serial_campaign_loads_none_of_the_ablation_stack():
    loaded = loaded_after(
        "from repro.campaign.families import default_matrix\n"
        "from repro.campaign.runner import CampaignRunner\n"
        "report = CampaignRunner(default_matrix(), backend='serial', limit=60).run()\n"
        "assert report.scenarios == 60 and not report.violations\n"
    )
    assert "repro.campaign.runner" in loaded
    assert loaded.isdisjoint(NOT_IN_A_CAMPAIGN), sorted(loaded & set(NOT_IN_A_CAMPAIGN))


def test_the_checker_properties_load_no_explorer_and_no_runner():
    loaded = loaded_after("import repro.checker.properties")
    assert "repro.checker.explorer" not in loaded
    assert "repro.campaign.runner" not in loaded


def test_the_cli_loads_no_kernels_and_no_trace_summary():
    loaded = loaded_after("import repro.cli")
    assert "repro.campaign.ablation.kernels" not in loaded
    assert "repro.obs.summarize" not in loaded


#: ``repro`` modules a fresh interpreter loads for each import, exact: a
#: request or a CLI start that pulls in more code shows here first.
IMPORT_COUNTS = {
    "from repro.quote.request import QuoteRequest": 37,
    "import repro.cli": 67,
}


@pytest.mark.parametrize("code, count", IMPORT_COUNTS.items())
def test_the_front_doors_load_a_pinned_module_count(code, count):
    loaded = loaded_after(code)
    assert "repro.campaign.ablation.refine" not in loaded
    assert len(loaded) == count, sorted(loaded)


@pytest.mark.parametrize(
    "package",
    [
        "repro.campaign",
        "repro.campaign.ablation",
        "repro.obs",
        "repro.core",
        "repro.checker",
        "repro.quote",
    ],
)
def test_every_lazy_export_resolves_from_its_defining_module(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        origin = getattr(value, "__module__", None) or getattr(value, "__name__", None)
        assert origin is None or origin.startswith(package + "."), (name, origin)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
