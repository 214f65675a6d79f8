"""scripts/make_references.py: every problem's mesh plan is the one its
stored reference records, checked without solving."""

import importlib.util
import json
from pathlib import Path

import pytest

from pbfem.benchmarks import registered_names

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_references.py"
_spec = importlib.util.spec_from_file_location("make_references", _SCRIPT)
make_references = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_references)


@pytest.mark.parametrize("name", registered_names())
def test_mesh_plan_matches_stored_provenance(name):
    doc = json.loads((make_references.REFDATA / f"{name}.json").read_text())
    provenance = doc["provenance"]
    recorded = (*provenance.get("mesh_sequence", ()), provenance["n_elements"])
    assert make_references.mesh_plan(name) == recorded
