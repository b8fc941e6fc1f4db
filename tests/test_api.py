import os
import subprocess
import sys
from pathlib import Path

import pytest

import sagnacsim

CORE = ["sagnacsim", "sagnacsim.analysis", "sagnacsim.cli", "sagnacsim.errors", "sagnacsim.jones",
        "sagnacsim.qudit", "sagnacsim.sagnac", "sagnacsim.schedule"]


def loaded_modules(*lines):
    """The sagnacsim modules a fresh interpreter holds after running ``lines``."""
    package_root = str(Path(sagnacsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "\n".join(["import contextlib, io, sys", *lines,
                      "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'sagnacsim'))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_all_resolves_sorted_without_repeats():
    names = sagnacsim.__all__
    assert [name for name in names if not hasattr(sagnacsim, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_import_loads_only_the_core():
    # dir() lists the names that load their module on first use without loading it
    assert loaded_modules("import sagnacsim, sagnacsim.cli",
                          "assert set(sagnacsim.__all__) <= set(dir(sagnacsim))") == CORE


def test_fit_loads_only_the_core(tmp_path):
    cfg = sagnacsim.ExperimentConfig(dim=3, schedule=sagnacsim.builtin_schedule(3))
    sagnacsim.write_scan(sagnacsim.generate_scan(cfg, 1.0), tmp_path / "scan.csv")
    assert loaded_modules(
        "from sagnacsim.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main(['fit', {str(tmp_path / 'scan.csv')!r}]) == 0",
    ) == CORE


def test_verify_loads_neither_campaign_nor_plotting():
    assert loaded_modules(
        "from sagnacsim.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['verify', '--trials', '1']) == 0",
    ) == sorted([*CORE, "sagnacsim.verify"])


def test_lazy_names_resolve_to_their_modules():
    from sagnacsim import campaign, verify

    assert sagnacsim.run_campaign is campaign.run_campaign
    assert sagnacsim.CampaignSpec is campaign.CampaignSpec
    assert sagnacsim.load_campaign_spec is campaign.load_campaign_spec
    assert sagnacsim.run_verification is verify.run_verification


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sagnacsim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sagnacsim.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sagnacsim.no_such_name  # noqa: B018
    assert not hasattr(sagnacsim, "no_such_name")
