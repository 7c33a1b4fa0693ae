"""The quick-table goldens: what "same tables" means.

Every quick-profile experiment table must hash byte-identically to its
digest in ``tests/data/quick_suite_tables.sha256.json``.  A deviation
in any digit of any of the 21 tables fails here, whatever the cause:
the event engine, a cache policy, the control plane or a default path.
A table that legitimately changes is re-pinned in that file, with the
reason recorded next to the change.  Run alone with ``make goldens``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import load_all, registry

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "quick_suite_tables.sha256.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

load_all()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN["tables"]))
def test_quick_table_matches_golden(experiment_id):
    """Rendered table text is byte-identical to the pinned digest."""
    result = registry.get(experiment_id).run(profile="quick")
    digest = hashlib.sha256(result.to_text().encode()).hexdigest()
    assert digest == GOLDEN["tables"][experiment_id], (
        f"{experiment_id}: quick-profile table deviates from its golden "
        f"in {GOLDEN_PATH.name}"
    )


def test_goldens_cover_all_preexisting_experiments():
    """Every golden id is still registered (none silently dropped)."""
    registered = set(registry.ids())
    missing = set(GOLDEN["tables"]) - registered
    assert not missing, f"golden experiments no longer registered: {missing}"
