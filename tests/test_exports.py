"""The package exports exactly the names the command line and the README use."""

import importlib
import re
from pathlib import Path

import pytest

import bandrec
from bandrec import spinchain

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
API_HEADING = "## Library API\n"

# perfbench/trace_child.py wraps these by module attribute to time the ED
# and inversion layers; a name that moves leaves its per-layer metrics at 0
TRACED = [
    ("spinchain", "SectorBasis.build"),
    ("spinchain", "build_hamiltonian"),
    ("lanczos", "lowest_eigenpair"),
    ("riemann", "riemann_sum"),
    ("inversion", "invert_coefficients"),
]


def api_section() -> str:
    """The README's Library API section, up to the next heading."""
    assert README.count(API_HEADING) == 1
    return README.split(API_HEADING)[1].split("\n## ")[0]


def test_every_exported_name_is_used():
    # the Library API list itself does not count as a use
    texts = [
        (ROOT / "src" / "bandrec" / "cli.py").read_text(),
        README.replace(api_section(), ""),
    ]
    unused = [
        name
        for name in bandrec.__all__
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert unused == []


def test_readme_library_api_lists_exactly_the_exported_names():
    listed = re.findall(r"`(\w+)`", api_section())
    assert sorted(listed) == sorted(bandrec.__all__)
    assert len(set(bandrec.__all__)) == len(bandrec.__all__)
    assert all(hasattr(bandrec, name) for name in bandrec.__all__)


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_functions_stay_module_attributes(module, attr):
    # looked up as the tracer does: in the module, or in a class of it
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(f"bandrec.{module}")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert name in vars(owner) and callable(getattr(owner, name))


def test_sector_basis_build_stays_a_classmethod():
    assert isinstance(vars(spinchain.SectorBasis)["build"], classmethod)
