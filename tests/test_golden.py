"""Fresh runs of the golden commands against the artifacts in tests/golden.

The commands are ``regenerate.RUNS``: ``clocklab all --seed 1`` and the nine
non-default runs ``symbol --algebra su11``, ``stationary-sweep --family h4``,
``constraint --profile random``, ``classical-limit --sizes 5,10,20,30``,
``schrodinger --j 400``, ``classical-limit --sizes 20,40``,
``identity-resolution --j 2.5``, ``classical-limit --sizes 80,160`` and
``identity-resolution --j 400``.

Where the environment matches the one recorded next to the golden files
(numpy, scipy, the OpenBLAS builds and kernels, one BLAS thread) the files
must be equal byte for byte.  Elsewhere every verdict and every non-float
field must be equal and every float must lie within REL_BOUND relative plus
ABS_BOUND absolute of its golden value.  The comparison that ran is recorded
as the test property ``golden_comparison`` and printed (``pytest -rP``); the
value comparison also warns.  Regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

import csv
import importlib.util
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               HERE / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

# enough for the last bits a different BLAS moves, and for the finite
# difference residuals, whose cancellation magnifies them by about 1e8
REL_BOUND = 1e-6
ABS_BOUND = 1e-12


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden.run_all(tmp_path_factory.mktemp("golden"))


def _float(text):
    """The value of a float field, or None for an integer, a verdict or text."""
    try:
        int(text)
        return None
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_BOUND * max(abs(a), abs(b)) + ABS_BOUND


def _same_text(a, b):
    """Comma-separated fields (csv cells, lists in summary strings) one by one."""
    parts_a, parts_b = a.split(","), b.split(",")
    if len(parts_a) != len(parts_b):
        return False
    for x, y in zip(parts_a, parts_b):
        fx, fy = _float(x), _float(y)
        if fx is None or fy is None:
            if x != y:
                return False
        elif not _same_float(fx, fy):
            return False
    return True


def _json_mismatches(a, b, where):
    if type(a) is not type(b):
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        if sorted(a) != sorted(b):
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [m for k in a for m in _json_mismatches(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        return [m for i, (x, y) in enumerate(zip(a, b))
                for m in _json_mismatches(x, y, f"{where}[{i}]")]
    same = {float: _same_float, str: _same_text}.get(type(a), lambda x, y: x == y)(a, b)
    return [] if same else [f"{where}: {a!r} != {b!r}"]


def value_mismatches(key, expected, got):
    """Differences between two versions of one artifact beyond the float bound."""
    if key.endswith("summary.json"):
        return _json_mismatches(json.loads(expected), json.loads(got), key)
    if key.endswith("data.csv"):
        rows_e = list(csv.reader(io.StringIO(expected.decode())))
        rows_g = list(csv.reader(io.StringIO(got.decode())))
        if len(rows_e) != len(rows_g):
            return [f"{key}: {len(rows_e)} rows != {len(rows_g)}"]
        return [f"{key} row {i}: {e} != {g}" for i, (e, g) in enumerate(zip(rows_e, rows_g))
                if len(e) != len(g) or not all(_same_text(x, y) for x, y in zip(e, g))]
    return [] if expected == got else [f"{key}: differs"]


def test_golden_artifacts(fresh, record_property):
    expected = golden.read_golden()
    assert sorted(fresh) == sorted(expected)
    assert sorted({key.split("/")[0] for key in expected}) == sorted(golden.RUNS)
    recorded = json.loads(golden.ENVIRONMENT.read_text())
    current = golden.environment()
    mode = "bytes" if current == recorded else "values"
    record_property("golden_comparison", mode)
    print(f"golden comparison: {mode}")
    if mode == "bytes":
        assert [key for key in expected if fresh[key] != expected[key]] == []
    else:
        warnings.warn(f"golden artifacts compared by value: environment {current} "
                      f"differs from the recorded {recorded}", stacklevel=1)
        mismatches = [m for key in expected
                      for m in value_mismatches(key, expected[key], fresh[key])]
        assert mismatches == []


def test_refused_golden_run_raises(tmp_path, monkeypatch):
    """A refused command writes nothing, so regenerating would delete its golden files."""
    monkeypatch.setattr(golden, "RUNS", {"one-size": ("classical-limit", "--sizes", "40")})
    with pytest.raises(RuntimeError, match="'one-size'.*cls_sizes"):
        golden.run_all(tmp_path)


def test_no_artifact_spells_a_numpy_scalar(fresh):
    assert [key for key, data in fresh.items() if b"np.float64(" in data] == []


def test_value_comparison_bounds():
    expected = golden.read_golden()
    key = "all-seed1/phase-audit/summary.json"
    summary = json.loads(expected[key])
    assert value_mismatches(key, expected[key], expected[key]) == []

    def variant(edit):
        changed = json.loads(expected[key])
        edit(changed)
        return json.dumps(changed).encode()

    def nudge(c):
        c["checks"][0]["full_residual"] *= 1 + 1e-9

    def jump(c):
        c["checks"][0]["full_residual"] *= 1 + 1e-3

    def flip(c):
        c["checks"][0]["passed"] = not c["checks"][0]["passed"]

    def rename(c):
        c["checks"][0]["check_id"] += "x"

    def list_entry(c):
        c["checks"][3]["errors"] = c["checks"][3]["errors"].replace("0.1", "0.2", 1)

    assert summary["checks"][3]["errors"].count(",") == 3
    assert value_mismatches(key, expected[key], variant(nudge)) == []
    for edit in (jump, flip, rename, list_entry):
        assert value_mismatches(key, expected[key], variant(edit)) != [], edit.__name__
    csv_key = "all-seed1/phase-audit/data.csv"
    text = expected[csv_key].decode()
    assert value_mismatches(csv_key, expected[csv_key],
                            text.replace("commutator", "commutatorx").encode()) != []
    assert value_mismatches(csv_key, expected[csv_key],
                            text.replace(",20.0,", ",20.1,", 1).encode()) != []


# float.hex of quadrature results that no golden run reaches, each at the grid
# the benchmark's classical-limit workload uses: the identity deviation at
# 4j + 4 radii and azimuths, the coherent-aggregate (PRECS) residual at 2j + 2
# radii and dim azimuths of a Gaussian psi centred at rho 0.55, width 0.18;
# and the worst uncertainty slack on the phase-audit grid (j 15, 15 x 15)
PINNED = {
    "identity-j10": "0x1.5204cede9196dp-46",
    "identity-j20": "0x1.3c00124943c9ap-43",
    "precs-j10": "0x1.1905ff2e79c9ap-50",
    "precs-j20": "0x1.188ec34937a3ap-50",
    "uncertainty-j15": "0x1.c02bbe0a943f0p-5",
}


def _pinned_quadratures():
    import clocklab as cl
    out = {}
    for j in (10.0, 20.0):
        nodes = int(4 * j + 4)
        out[f"identity-j{j:g}"] = cl.identity_resolution_check(
            cl.build_su2_rep(j), n_polar=nodes, n_azim=nodes)
        clock = cl.intensive_su2_clock(j)
        match = cl.match_spectra(clock.h_c, cl.resonant_ladder(clock, clock.dim),
                                 tol=1e-9 * max(clock.epsilon, 1.0))
        psi = cl.build_psi(match, cl.gaussian_profile(
            match, center=cl.energy_of_rho(clock, 0.55), width=0.18))
        out[f"precs-j{j:g}"] = cl.precs_decomposition_check(
            psi, clock, n_polar=int(2 * j + 2), n_azim=clock.dim)
    clock = cl.build_clock(cl.build_su2_rep(15.0))
    out["uncertainty-j15"] = cl.uncertainty_grid_audit(
        clock, cl.build_phase_operator(clock), rhos=np.linspace(0.04, 0.36, 15),
        phis=np.linspace(0.0, 2 * np.pi, 15, endpoint=False))
    return out


def test_quadratures_no_golden_run_reaches_keep_their_bits():
    """Bit for bit where the golden files compare in bytes, else within the value bound."""
    got = _pinned_quadratures()
    if golden.environment() == json.loads(golden.ENVIRONMENT.read_text()):
        assert {key: value.hex() for key, value in got.items()} == PINNED
    else:
        assert all(_same_float(float.fromhex(PINNED[key]), value)
                   for key, value in got.items()), got
