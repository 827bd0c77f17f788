"""Derandomized, bounded property tests over each entry's validity range: every
default is scaled by e^U with U drawn from [-2.5, 2.5], and a draw that
``validate`` rejects is skipped, never one that fails the property."""
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pdem_si import catalog, verification as verif  # noqa: E402
from pdem_si.core import RangeError  # noqa: E402
from pdem_si.wavefunctions import LevelTable  # noqa: E402

_SPREAD = 2.5


def _scaled(entry, exponents):
    # entries have at most four parameters; zip drops the exponents left over
    return {k: v * math.exp(u) for (k, v), u in zip(entry.default_params.items(), exponents)}


def _valid(entry, params):
    try:
        entry.validate(params)
    except RangeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(n for n, e in catalog.ENTRIES.items() if not e.energy_discrepancy))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(exponents=st.lists(st.floats(-_SPREAD, _SPREAD), min_size=4, max_size=4))  # one per parameter
def test_chain_matches_published_energies(name, exponents):
    entry = catalog.ENTRIES[name]
    params = _scaled(entry, exponents)
    assume(_valid(entry, params))
    gap = verif.chain_vs_printed_energy(LevelTable(entry, params))
    assert gap < 1e-10, (params, gap)
