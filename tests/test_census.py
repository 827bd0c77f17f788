"""A census of ``verify`` and ``spectrum --n-levels auto`` over each entry's
validity region, pinned as a gate.

Each entry gets _DRAWS seeded parameter points over ranges that cover its
region; a draw that ``validate`` rejects is drawn again from the same stream.
The draws are never re-seeded, narrowed or filtered. Every point runs the
verify battery and the spectrum report, and the test pins what comes out: the
FAILs per (entry, check), the errors that exit 2 from the command line, and
the raw RuntimeWarnings, counted as one command-line run prints them (each
warning once per place it is raised). A new FAIL, error or warning fails the
test, and so does a mended one until its count is lowered here.
"""
import math
import random
import warnings
from collections import Counter

from pdem_si import catalog, cli, verification as verif
from pdem_si.core import NotFound, RangeError, SingularPotential, ZeroNorm

_DRAWS = 30
_SEED = 1
# what the command line turns into exit 2
_EXIT_2 = (RangeError, NotFound, ZeroNorm, SingularPotential, OverflowError)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scale(rng):
    # the positive scales: omega, A, B, e2
    return _log_uniform(rng, 0.05, 20.0)


def _shifted_oscillator(rng):
    beta = rng.uniform(-1.5, 1.5)
    return {"omega": _scale(rng), "b": rng.uniform(-3.0, 3.0), "alpha": beta**2 + _log_uniform(rng, 1e-3, 5.0), "beta": beta}


def _eckart(rng):
    a = _log_uniform(rng, 1.5, 8.0)
    return {"A": a, "B": a * a * _log_uniform(rng, 1.0001, 4.0), "alpha": rng.uniform(-2.0, 5.0)}


def _scarf_i(rng):
    a = _log_uniform(rng, 2.01, 20.0)
    return {"A": a, "B": rng.uniform(0.0, a - 1.0), "alpha": rng.uniform(-0.999, 0.999)}


def _rosen_morse_i(rng):
    beta = rng.uniform(-0.99, 5.0)
    edge = 1.99 * math.sqrt(1.0 + beta)
    return {"A": _scale(rng), "B": rng.uniform(-5.0, 5.0), "alpha": rng.uniform(-edge, edge), "beta": beta}


_DRAW = {
    "box": lambda rng: {"alpha": rng.uniform(-0.999, 0.999)},
    "trig_poschl_teller": lambda rng: {"A": _scale(rng), "alpha": rng.uniform(-0.999, 5.0)},
    "hyperbolic_poschl_teller": lambda rng: {"A": _scale(rng), "alpha": rng.uniform(0.001, 0.999)},
    "shifted_oscillator": _shifted_oscillator,
    "oscillator_3d": lambda rng: {"omega": _scale(rng), "l": rng.uniform(0.0, 5.0), "alpha": _log_uniform(rng, 1e-3, 5.0)},
    "coulomb": lambda rng: {"e2": _scale(rng), "l": rng.uniform(0.0, 5.0), "alpha": _log_uniform(rng, 1e-3, 5.0)},
    "morse": lambda rng: {"A": _scale(rng), "B": _scale(rng), "alpha": _log_uniform(rng, 1e-3, 5.0)},
    "eckart": _eckart,
    "scarf_i": _scarf_i,
    "rosen_morse_i": _rosen_morse_i,
}

# entry -> {what: count} over the entry's _DRAWS points; a check's name counts
# its FAILs. The comments name the ROADMAP item that should mend each count.
_PINNED = {
    "coulomb": {"oracle vs chain energies": 8},  # item 3
    "eckart": {
        "eigen-residual n=0": 1,  # item 18(c)
        "ground-state closed vs integral form": 1,  # item 7: the printed ground state overflows at alpha near -2
        "lowering-operator annihilation": 5,  # item 18(c)
        "oracle vs chain energies": 3,  # item 3
        # item 7 (the overflowing ground state) and sinh(x)**2 of V_eff overflowing far out on a wide oracle window
        "verify RuntimeWarning": 4,
    },
    "hyperbolic_poschl_teller": {
        "ground-state closed vs integral form": 1,  # item 7: the printed ground state overflows at alpha near 1
        "verify RuntimeWarning": 2,  # item 7
    },
    "morse": {"oracle vs chain energies": 6},  # item 3
    "oscillator_3d": {"oracle vs chain energies": 13},  # item 3
    "rosen_morse_i": {
        "eigen-residual n=1": 1,  # item 18(c)
        "eigen-residual n=2": 1,  # item 18(c)
        "ordered vs deformed spectra": 1,  # item 18(a)
    },
    "scarf_i": {
        "ground-state closed vs integral form": 1,  # item 7: the printed ground state overflows at alpha near 1
        "verify RuntimeWarning": 2,  # item 7
    },
    "shifted_oscillator": {
        "eigen-residual n=1": 1,  # item 18(c)
        "eigen-residual n=2": 6,  # item 18(c)
        "lowering-operator annihilation": 1,  # item 18(c)
        "oracle vs chain energies": 25,  # item 3
        "ordered vs deformed spectra": 13,  # item 18(a)
        "spectrum exit 2": 4,  # item 18(b): the Gram misses its bound where min f is near 0
    },
}


def _draws(entry) -> list:
    rng, points = random.Random(f"{_SEED}:{entry.name}"), []
    while len(points) < _DRAWS:
        params = _DRAW[entry.name](rng)
        try:
            entry.validate(params)
        except RangeError:
            continue
        points.append(params)
    return points


def _run(tally: Counter, command: str, call) -> None:
    # one command-line run: its exit-2 errors and the RuntimeWarnings it prints
    verif._SPECTRUM_CACHE.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            call()
        except _EXIT_2:
            tally[f"{command} exit 2"] += 1
    tally[f"{command} RuntimeWarning"] += sum(issubclass(w.category, RuntimeWarning) for w in caught)


def _census(entry) -> dict:
    tally = Counter()

    def verify(params):
        tally.update(check.name for check in verif.verify_entry(entry, params) if check.ok is False)

    for params in _draws(entry):
        _run(tally, "verify", lambda: verify(params))
        _run(tally, "spectrum", lambda: cli.build_spectrum_report(entry, params, "auto", False))
    return {what: n for what, n in sorted(tally.items()) if n}


def test_census_matches_the_pinned_table():
    got = {name: _census(entry) for name, entry in catalog.ENTRIES.items()}
    assert got == {name: _PINNED.get(name, {}) for name in catalog.ENTRIES}
