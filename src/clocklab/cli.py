"""Command line experiment runner.

Every check in the library is exposed as a subcommand that writes three
files into a fresh timestamped directory under the output root:

    <out>/<subcommand>/<timestamp>/data.csv      grid / sweep table
    <out>/<subcommand>/<timestamp>/summary.json  pass/fail + metrics
    <out>/<subcommand>/<timestamp>/config.echo   effective configuration

Exit status is 0 when every check passed, 1 when at least one failed,
and 2 when the configuration did not parse or the library refused it
(a ``ValueError`` from a runner, printed as ``refused: ...``); on exit 2
nothing is written.  Progress goes to stderr; the run directory path is
the only thing printed to stdout.  File contents never embed wall-clock
times, so rerunning with the same configuration and BLAS thread count
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import pathlib
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
    verify_cartan,
)
from .classical import (
    beta_distribution,
    classical_constraint_check,
    classical_flow_rate,
    hamilton_check,
    pullback_two_form,
)
from .constraint import (
    build_psi,
    chi2_identity_residual,
    conditional_state,
    gaussian_profile,
    gaussian_state,
    ladder_match,
    precs_decomposition_check,
    random_profile,
    total_hamiltonian,
)
from .dynamics import (
    convergence_sweep,
    energy_of_rho,
    h4_stationary_experiment,
    propagator_deviation,
    quantum_flow_rate,
    resonant_ladder,
    schrodinger_residual,
    su2_stationary_experiment,
)
from .families import lookup
from .gcs import (
    clock_symbol_analytic,
    clock_symbol_numeric,
    coherent_points,
    displace,
    identity_resolution_check,
)
from .phase import (
    build_phase_operator,
    classical_phase_expectations,
    commutator_check,
    small_phi_energy_time,
    uncertainty_grid_audit,
)

ENV_OUT = "CLOCKLAB_OUT"

class ConfigError(Exception):
    """Raised for anything that should exit with status 2."""


# --- configuration ----------------------------------------------------------
#
# One flat namespace configures every subcommand, so a single file can
# drive an `all` run.  Each key has a type tag used both to validate the
# file and to canonicalize the echo text that gets hashed.

_KEYS: dict[str, tuple[str, object]] = {
    "out": ("str", "runs"),
    "seed": ("int", 2026),
    # verify-algebra
    "alg_su2_j": ("floatlist", (0.5, 2.0, 10.0, 25.0, 50.0)),
    "alg_h4_cut": ("int", 256),
    "alg_su11_k": ("float", 0.5),
    "alg_su11_cut": ("int", 64),
    # bch-check
    "bch_su2_j": ("floatlist", (0.5, 2.0, 10.0, 25.0)),
    "bch_h4_cut": ("int", 48),
    "bch_points": ("int", 12),
    "bch_rho_max": ("float", 0.7),
    # symbol
    "sym_algebra": ("str", "all"),
    "sym_rho": ("str", ""),
    "sym_points": ("int", 15),
    "sym_su2_j": ("float", 10.0),
    "sym_h4_mean": ("float", 24.0),
    "sym_su11_k": ("float", 0.5),
    "sym_su11_cut": ("int", 96),
    # identity-resolution
    "idr_j": ("float", 3.0),
    "idr_h4_cut": ("int", 48),
    # constraint
    "con_j": ("float", 10.0),
    "con_rho": ("float", 0.55),
    "con_phi": ("float", 0.3),
    "con_width": ("float", 0.18),
    "con_profile": ("str", "gaussian"),
    # schrodinger
    "sch_j": ("float", 10.0),
    "sch_rho": ("float", 0.45),
    "sch_phi": ("float", 0.6),
    "sch_h": ("float", 1e-4),
    "sch_width": ("float", 0.2),
    "sch_phi_points": ("int", 25),
    # stationary-sweep
    "stat_family": ("str", "su2"),
    "stat_sizes": ("floatlist", (5.0, 10.0, 20.0, 40.0)),
    "stat_rho": ("float", 0.6),
    "stat_width": ("float", 0.25),
    # phase-audit
    "ph_j": ("float", 20.0),
    "ph_grid_j": ("float", 15.0),
    "ph_grid_n": ("int", 15),
    "ph_rho_min": ("float", 0.04),
    "ph_rho_max": ("float", 0.36),
    "ph_small_rho": ("float", 0.2),
    "ph_small_phi": ("float", 0.05),
    "ph_sizes": ("floatlist", (10.0, 20.0, 40.0, 80.0)),
    "ph_exp_rho": ("float", 0.3),
    "ph_exp_phi": ("float", 0.8),
    # classical-limit
    "cls_sizes": ("floatlist", (5.0, 10.0, 20.0)),
    "cls_rho": ("float", 0.55),
    "cls_width": ("float", 0.18),
    "cls_sep_j": ("float", 3.0),
    "cls_threshold": ("float", 1e-6),
    # hamilton
    "ham_su2_j": ("float", 10.0),
    "ham_h4_mean": ("float", 32.0),
    "ham_grid": ("int", 20),
    "ham_rho": ("float", 0.5),
    "ham_phi": ("float", 0.7),
    "ham_js": ("floatlist", (1.0, 2.0)),
    # tolerances (all overridable via --tol-override)
    "tol_cartan": ("float", 1e-12),
    "tol_bch": ("float", 1e-10),
    "tol_symbol_su2": ("float", 1e-10),
    "tol_symbol_h4": ("float", 1e-8),
    "tol_symbol_su11": ("float", 1e-8),
    "tol_identity_su2": ("float", 1e-8),
    "tol_identity_h4": ("float", 1e-6),
    "tol_constraint_energy": ("float", 1e-10),
    "tol_chi2_identity": ("float", 1e-10),
    "tol_precs": ("float", 1e-8),
    "tol_slope": ("float", 0.1),
    "tol_propagator": ("float", 1e-9),
    "tol_chi2_drift": ("float", 1e-12),
    "tol_phase_interior": ("float", 1e-10),
    "tol_slack": ("float", 1e-12),
    "tol_small_phi": ("float", 0.05),
    "tol_beta_norm": ("float", 1e-6),
    "tol_pullback": ("float", 1e-10),
    "tol_hamilton": ("float", 1e-10),
    "tol_flow_match": ("float", 1e-10),
}


def _finite(raw: object) -> float:
    # inf or nan would quietly switch off a gate or a grid: nan fails every
    # comparison, so a reduction that skips it can still report a pass.
    value = float(str(raw))
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _cast(key: str, raw: object) -> object:
    kind = _KEYS[key][0]
    try:
        if kind == "int":
            return int(str(raw))
        if kind == "float":
            return _finite(raw)
        if kind == "floatlist":
            if isinstance(raw, (tuple, list)):
                return tuple(_finite(x) for x in raw)
            parts = [p for p in str(raw).split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(_finite(p) for p in parts)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None


def _canon(key: str, value: object) -> str:
    kind = _KEYS[key][0]
    if kind == "float":
        return repr(float(value))
    if kind == "floatlist":
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def load_config(path: str | None, overrides: dict[str, object],
                tol_overrides: Sequence[str]) -> dict[str, object]:
    """Merge defaults, file, then command line; validate everything."""
    cfg = {k: _cast(k, default) for k, (_, default) in _KEYS.items()}
    if path is not None:
        text = pathlib.Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = _cast(key, value.strip())
    env_out = os.environ.get(ENV_OUT)
    if env_out:
        cfg["out"] = env_out
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown option {key!r}")
        cfg[key] = _cast(key, value)
    for item in tol_overrides:
        if "=" not in item:
            raise ConfigError(f"--tol-override expects KEY=VAL, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key.startswith("tol_"):
            key = "tol_" + key
        if key not in _KEYS or _KEYS[key][0] != "float":
            raise ConfigError(f"unknown tolerance {key!r}")
        cfg[key] = _cast(key, value.strip())
    for key, (kind, _) in _KEYS.items():
        if key.startswith("tol_") and not cfg[key] > 0:
            raise ConfigError(f"tolerance {key!r} must be positive")
        # a grid or cutoff of zero would pass its gates without checking anything
        if kind == "int" and key != "seed" and cfg[key] < 1:
            raise ConfigError(f"{key!r} must be at least 1")
    # one point is phi = 0 alone, where the propagator and the drift compare identities
    if cfg["sch_phi_points"] < 2:
        raise ConfigError(f"'sch_phi_points' must be at least 2, got {cfg['sch_phi_points']!r}")
    # one size leaves no pair to compare, and all() over no pair is true
    if len(cfg["ph_sizes"]) < 2:
        raise ConfigError(f"'ph_sizes' needs at least 2 sizes, got {len(cfg['ph_sizes'])}")
    # one grid point is rho = 0 alone, where both symbols vanish exactly
    if not cfg["sym_rho"] and cfg["sym_points"] < 2:
        raise ConfigError(f"'sym_points' must be at least 2, got {cfg['sym_points']!r}")
    # run_hamilton has system vectors for J = 1 and 2 only
    if any(x not in (1.0, 2.0) for x in cfg["ham_js"]):
        raise ConfigError(f"'ham_js' entries must be 1 or 2, got {cfg['ham_js']!r}")
    # a cut of 0 or below keeps every node, one above 1 none
    if not 0.0 < cfg["cls_threshold"] <= 1.0:
        raise ConfigError(f"cls_threshold must lie in (0, 1], got {cfg['cls_threshold']!r}")
    if cfg["sym_algebra"] not in ("all", "su2", "h4", "su11"):
        raise ConfigError("sym_algebra must be one of all, su2, h4, su11")
    if cfg["con_profile"] not in ("gaussian", "random"):
        raise ConfigError("con_profile must be gaussian or random")
    if cfg["stat_family"] not in ("su2", "h4"):
        raise ConfigError("stat_family must be su2 or h4")
    if cfg["sym_rho"]:
        try:
            rho = _finite(cfg["sym_rho"])
        except ValueError:
            raise ConfigError(f"sym_rho must be a finite number, got {cfg['sym_rho']!r}") from None
        if rho < 0:
            raise ConfigError(f"sym_rho must be nonnegative, got {cfg['sym_rho']!r}")
        if cfg["sym_algebra"] == "all":
            raise ConfigError("single-point symbol mode needs an explicit algebra")
    return cfg


def config_echo_text(cfg: dict[str, object]) -> str:
    return "".join(f"{k}={_canon(k, cfg[k])}\n" for k in sorted(cfg))


# --- output plumbing --------------------------------------------------------

def _fmt(x: object) -> str:
    # np.float64 is a float, and numpy 2 spells its repr np.float64(...)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return str(int(x))
    return str(x)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _run_dir(root: pathlib.Path, sub: str) -> pathlib.Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    base = root / sub / stamp
    suffix = 1
    path = base
    while True:
        # mkdir itself decides who owns a name, so two runs in the same
        # microsecond cannot both pass an exists() check and then collide.
        try:
            path.mkdir(parents=True)
            return path
        except FileExistsError:
            suffix += 1
            path = base.with_name(f"{stamp}-{suffix}")


def write_outputs(cfg: dict[str, object], sub: str, header: Sequence[str],
                  rows: Iterable[Sequence[object]], checks: list[dict]) -> tuple[pathlib.Path, bool]:
    echo = config_echo_text(cfg)
    digest = hashlib.sha256(echo.encode()).hexdigest()
    passed = all(c["passed"] for c in checks)
    summary = {
        "subcommand": sub,
        "pass": passed,
        "seed": cfg["seed"],
        "config_sha256": digest,
        "tolerances": {k: v for k, v in sorted(cfg.items()) if k.startswith("tol_")},
        "checks": checks,
    }
    out = _run_dir(pathlib.Path(str(cfg["out"])), sub)
    with open(out / "data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    (out / "config.echo").write_text(echo)
    return out, passed


def _check(check_id: str, passed: bool, **metrics: object) -> dict:
    entry: dict[str, object] = {"check_id": check_id, "passed": bool(passed)}
    for key, value in metrics.items():
        if isinstance(value, (np.floating, float)):
            entry[key] = float(value)
        elif isinstance(value, (np.integer, int)):
            entry[key] = int(value)
        else:
            entry[key] = value
    return entry


# --- subcommand bodies ------------------------------------------------------

def run_verify_algebra(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    tol = cfg["tol_cartan"]
    reps = [build_su2_rep(j) for j in cfg["alg_su2_j"]]
    reps.append(build_h4_rep(int(cfg["alg_h4_cut"])))
    reps.append(build_su11_rep(float(cfg["alg_su11_k"]), int(cfg["alg_su11_cut"])))
    rows, checks = [], []
    for rep in reps:
        rpt = verify_cartan(rep, tol=tol)
        label = {"su2": f"su2-j{rep.params.get('j', 0)!r}",
                 "h4": f"h4-n{rep.dim}",
                 "su11": f"su11-k{rep.params.get('k', 0)!r}-n{rep.dim}",
                 }[rep.family]
        measured = rpt.max_residual_exact_subspace if rep.truncated else rpt.max_residual
        rows.append([rep.family, rep.dim, rpt.diagonal_commutators, rpt.ladder_relations,
                     rpt.closure_relation, rpt.reference_annihilation,
                     rpt.reference_weights, measured])
        checks.append(_check(f"cartan-{label}", rpt.passed, residual=measured, tolerance=tol))
        _progress(f"[verify-algebra] {label}: residual {measured:.3e}")
    header = ["family", "dim", "diagonal_commutators", "ladder_relations",
              "closure_relation", "reference_annihilation", "reference_weights",
              "max_residual"]
    return header, rows, checks


def run_bch_check(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    tol = cfg["tol_bch"]
    n = int(cfg["bch_points"])
    rho_max = float(cfg["bch_rho_max"])
    # the grid rho-major, one point per (rho, phi)
    rhos = np.repeat(np.linspace(0.02, rho_max, n), n)
    phis = np.tile(np.linspace(0.0, 2 * np.pi, n, endpoint=False), n)
    cases = [("su2", j, build_su2_rep(j)) for j in cfg["bch_su2_j"]]
    cases.append(("h4", float(cfg["bch_h4_cut"]), build_h4_rep(int(cfg["bch_h4_cut"]))))
    rows, checks = [], []
    for family, size, rep in cases:
        # the expm oracle point by point, the closed forms as one table
        direct = np.stack([displace(rep, r * np.exp(1j * p)).vector
                           for r, p in zip(rhos, phis)], axis=1)
        closed = coherent_points(rep, rhos, phis)
        sub = rep.valid_dim if rep.truncated else rep.dim
        # np.max propagates nan, where max() would drop it and pass the gate
        diff = float(np.max(np.linalg.norm(direct[:sub] - closed[:sub], axis=0)))
        rows.append([family, rep.dim, n * n, diff])
        label = f"bch-{family}-j{size!r}" if family == "su2" else f"bch-h4-n{rep.dim}"
        checks.append(_check(label, diff <= tol, max_difference=diff, tolerance=tol))
        _progress(f"[bch-check] {family} dim {rep.dim}: max diff {diff:.3e}")
    return ["family", "dim", "grid_points", "max_difference"], rows, checks


def _symbol_rows(clock, family: str, rhos: Sequence[float], relative: bool):
    rows = []
    for rho in rhos:
        numeric = clock_symbol_numeric(clock, float(rho))
        analytic = clock_symbol_analytic(clock, float(rho))
        err = abs(numeric - analytic)
        if relative:
            err = err / max(abs(analytic), 1e-30) if analytic != 0.0 else err
        rows.append([family, float(rho), numeric, analytic, err])
    # np.max propagates nan, where max() would drop it and pass the gate
    return rows, float(np.max([row[-1] for row in rows]))


def run_symbol(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    choice = str(cfg["sym_algebra"])
    n = int(cfg["sym_points"])
    single = float(cfg["sym_rho"]) if cfg["sym_rho"] else None
    rows, checks = [], []
    plans = []
    if choice in ("all", "su2"):
        plans.append(("su2", intensive_su2_clock(float(cfg["sym_su2_j"])),
                      np.linspace(0.0, 0.7, n), False, cfg["tol_symbol_su2"]))
    if choice in ("all", "h4"):
        plans.append(("h4", intensive_h4_clock(float(cfg["sym_h4_mean"])),
                      np.linspace(0.0, 1.5, n), True, cfg["tol_symbol_h4"]))
    if choice in ("all", "su11"):
        rep = build_su11_rep(float(cfg["sym_su11_k"]), int(cfg["sym_su11_cut"]))
        plans.append(("su11", build_clock(rep), np.linspace(0.0, 0.5, n), True,
                      cfg["tol_symbol_su11"]))
    for family, clock, rhos, relative, tol in plans:
        if single is not None:
            rhos = [single]
        fam_rows, worst = _symbol_rows(clock, family, rhos, relative)
        rows.extend(fam_rows)
        kind = "rel" if relative else "abs"
        checks.append(_check(f"symbol-{family}", worst <= tol,
                             worst_error=worst, error_kind=kind, tolerance=tol))
        _progress(f"[symbol] {family}: worst {kind} error {worst:.3e} over {len(rhos)} points")
    return ["family", "rho", "numeric", "analytic", "error"], rows, checks


def run_identity_resolution(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    j = float(cfg["idr_j"])
    cut = int(cfg["idr_h4_cut"])
    cases = [("su2", build_su2_rep(j), f"identity-su2-j{_canon('idr_j', j)}",
              cfg["tol_identity_su2"]),
             ("h4", build_h4_rep(cut), f"identity-h4-n{cut}", cfg["tol_identity_h4"])]
    rows, checks = [], []
    for family, rep, label, tol in cases:
        deviation = identity_resolution_check(rep)
        rows.append([family, len(lookup(family).nodes(rep)[0]), deviation])
        checks.append(_check(label, deviation <= tol, deviation=deviation, tolerance=tol))
        _progress(f"[identity-resolution] {family}: deviation {deviation:.3e}")
    return ["family", "nodes", "deviation"], rows, checks


def run_constraint(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    clock = intensive_su2_clock(float(cfg["con_j"]))
    h_system = resonant_ladder(clock, clock.dim)
    match = ladder_match(clock, h_system)
    rho, phi = float(cfg["con_rho"]), float(cfg["con_phi"])
    if cfg["con_profile"] == "random":
        coeff = random_profile(match, int(cfg["seed"]))
    else:
        coeff = gaussian_profile(match, center=energy_of_rho(clock, rho),
                                 width=float(cfg["con_width"]))
    psi = build_psi(match, coeff)
    h_total = total_hamiltonian(clock.h_c, h_system)
    energy_residual = float(np.linalg.norm(h_total @ psi.vector))
    chi_a = conditional_state(psi, clock, rho, phi).chi2
    chi_b = conditional_state(psi, clock, rho, phi + 1.1).chi2
    phase_independence = abs(chi_a - chi_b)
    identity = float(np.max([chi2_identity_residual(psi, clock, r, p)
                             for r in (0.3, rho, 0.8) for p in (0.0, phi)]))
    precs = precs_decomposition_check(psi, clock)
    rows = [["pair", i, k, float(match.clock_evals[i]), abs(c)]
            for (i, k), c in zip(psi.pairs, psi.coefficients)]
    rows.append(["chi2", 0, 0, chi_a, chi_b])
    checks = [
        _check("energy-residual", energy_residual <= cfg["tol_constraint_energy"],
               residual=energy_residual, tolerance=cfg["tol_constraint_energy"]),
        _check("chi2-phase-independence", phase_independence <= cfg["tol_chi2_identity"],
               residual=phase_independence, tolerance=cfg["tol_chi2_identity"]),
        _check("chi2-density-identity", identity <= cfg["tol_chi2_identity"],
               residual=identity, tolerance=cfg["tol_chi2_identity"]),
        _check("entanglement-entropy", psi.entanglement_entropy > 0.1,
               entropy=psi.entanglement_entropy, pairs=len(psi.pairs)),
        _check("conditional-decomposition", precs <= cfg["tol_precs"],
               residual=precs, tolerance=cfg["tol_precs"]),
    ]
    _progress(f"[constraint] |H psi| {energy_residual:.3e}, entropy "
              f"{psi.entanglement_entropy:.4f}, decomposition {precs:.3e}")
    return ["record", "index_clock", "index_system", "energy", "value"], rows, checks


def run_schrodinger(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    clock = intensive_su2_clock(float(cfg["sch_j"]))
    h_system = resonant_ladder(clock, clock.dim)
    rho, phi = float(cfg["sch_rho"]), float(cfg["sch_phi"])
    psi = gaussian_state(clock, h_system, center=energy_of_rho(clock, rho),
                         width=float(cfg["sch_width"]))
    res = schrodinger_residual(psi, clock, h_system, rho, phi, h=float(cfg["sch_h"]))
    phis = np.linspace(0.0, 2 * np.pi, int(cfg["sch_phi_points"]))
    prop = propagator_deviation(psi, clock, h_system, rho, phis)
    rate = quantum_flow_rate(psi, clock, h_system, rho)
    rate_err = abs(rate - clock.epsilon)
    rows = [
        ["fd_residual", res.h, res.value],
        ["fd_residual", res.h / 2, res.value_half_step],
        ["flow_rate", 0.0, rate],
        ["propagator_max", float(phis[-1]), prop.max_deviation],
        ["chi2_drift", float(phis[-1]), prop.chi2_drift],
    ]
    checks = [
        _check("richardson-slope", abs(res.richardson_slope - 2.0) <= cfg["tol_slope"],
               richardson_slope=res.richardson_slope, residual=res.value,
               tolerance=cfg["tol_slope"]),
        _check("propagator-deviation", prop.max_deviation <= cfg["tol_propagator"],
               deviation=prop.max_deviation, points=prop.n_points,
               tolerance=cfg["tol_propagator"]),
        _check("chi2-drift", prop.chi2_drift <= cfg["tol_chi2_drift"],
               drift=prop.chi2_drift, tolerance=cfg["tol_chi2_drift"]),
        _check("flow-rate-match", rate_err <= cfg["tol_flow_match"],
               rate=rate, expected=clock.epsilon, tolerance=cfg["tol_flow_match"]),
    ]
    _progress(f"[schrodinger] slope {res.richardson_slope:.4f}, propagator "
              f"{prop.max_deviation:.3e}, drift {prop.chi2_drift:.3e}")
    return ["record", "x", "value"], rows, checks


def run_stationary_sweep(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    family = str(cfg["stat_family"])
    sizes = [int(round(s)) for s in cfg["stat_sizes"]]
    rho, width = float(cfg["stat_rho"]), float(cfg["stat_width"])
    if family == "su2":
        def experiment(size: int):
            return su2_stationary_experiment(float(size), rho=rho, width=width)
    else:
        def experiment(size: int):
            return h4_stationary_experiment(size, width=width)
    for size in sizes:
        _progress(f"[stationary-sweep] {family} size {size}")
    sweep = convergence_sweep(sizes, experiment)
    rows = [[family, rec.size, rec.residual] for rec in sweep.records]
    checks = [
        _check("residual-decreasing", sweep.strictly_decreasing,
               sizes=",".join(str(s) for s in sizes)),
        _check("loglog-slope-negative", sweep.loglog_slope < 0.0,
               loglog_slope=sweep.loglog_slope),
    ]
    _progress(f"[stationary-sweep] decreasing={sweep.strictly_decreasing} "
              f"slope {sweep.loglog_slope:.3f}")
    return ["family", "size", "residual"], rows, checks


def run_phase_audit(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    clock = build_clock(build_su2_rep(float(cfg["ph_j"])))
    phase = build_phase_operator(clock)
    comm = commutator_check(clock, phase)

    grid_clock = build_clock(build_su2_rep(float(cfg["ph_grid_j"])))
    grid_phase = build_phase_operator(grid_clock)
    n = int(cfg["ph_grid_n"])
    rhos = np.linspace(float(cfg["ph_rho_min"]), float(cfg["ph_rho_max"]), n)
    phis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    worst_slack = uncertainty_grid_audit(grid_clock, grid_phase, rhos, phis)

    et = small_phi_energy_time(grid_clock, grid_phase,
                               float(cfg["ph_small_rho"]), float(cfg["ph_small_phi"]))
    small_dev = abs(et.ratio - 1.0)

    sizes = [int(round(s)) for s in cfg["ph_sizes"]]
    records = classical_phase_expectations("su2", sizes,
                                           float(cfg["ph_exp_rho"]), float(cfg["ph_exp_phi"]))
    sin_errs = [r.err_sin for r in records]
    cos_errs = [r.err_cos for r in records]
    sin_mono = all(a > b for a, b in zip(sin_errs, sin_errs[1:]))
    cos_mono = all(a > b for a, b in zip(cos_errs, cos_errs[1:]))

    rows = [["commutator", float(clock.rep.params["j"]), comm.interior_residual,
             comm.full_residual]]
    rows.append(["slack", float(grid_clock.rep.params["j"]), worst_slack, 0.0])
    rows.append(["small_phi", et.product, et.half_epsilon, et.ratio])
    rows.extend(["expectation", float(size), rec.err_sin, rec.err_cos]
                for size, rec in zip(sizes, records))
    checks = [
        _check("interior-commutator", comm.interior_residual <= cfg["tol_phase_interior"],
               residual=comm.interior_residual, full_residual=comm.full_residual,
               tolerance=cfg["tol_phase_interior"]),
        _check("uncertainty-slack", worst_slack >= -cfg["tol_slack"],
               worst_slack=worst_slack, tolerance=cfg["tol_slack"]),
        _check("small-phi-product", small_dev <= cfg["tol_small_phi"],
               ratio=et.ratio, tolerance=cfg["tol_small_phi"]),
        _check("expectation-sweep-sin", sin_mono, errors=",".join(_fmt(e) for e in sin_errs)),
        _check("expectation-sweep-cos", cos_mono, errors=",".join(_fmt(e) for e in cos_errs)),
    ]
    _progress(f"[phase-audit] interior {comm.interior_residual:.3e}, slack "
              f"{worst_slack:.4f}, small-phi ratio {et.ratio:.4f}")
    return ["record", "size", "value_a", "value_b"], rows, checks


def run_classical_limit(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    sizes = list(cfg["cls_sizes"])
    rho, width = float(cfg["cls_rho"]), float(cfg["cls_width"])
    threshold = float(cfg["cls_threshold"])
    rows, norm_devs, reports = [], [], []
    for j in sizes:
        clock = intensive_su2_clock(j)
        psi = gaussian_state(clock, resonant_ladder(clock, clock.dim),
                             center=energy_of_rho(clock, rho), width=width)
        beta = beta_distribution(psi, clock, clock, threshold=threshold)
        report = classical_constraint_check(beta, clock, clock)
        reports.append(report)
        norm_devs.append(abs(beta.normalization - 1.0))
        rows.append([j, beta.normalization, report.support_max, report.complement_max,
                     report.n_support])
        _progress(f"[classical-limit] j={j}: support mismatch {report.support_max:.4f}, "
                  f"off-support {report.complement_max:.4f}")
    support = [r.support_max for r in reports]
    decreasing = all(a > b for a, b in zip(support, support[1:]))
    control = all(r.complement_max > r.support_max for r in reports)

    sep_clock = intensive_su2_clock(float(cfg["cls_sep_j"]))
    sep_match = ladder_match(sep_clock, resonant_ladder(sep_clock, sep_clock.dim))
    coeff = np.zeros(len(sep_match.pairs))
    coeff[0] = 1.0
    sep_beta = beta_distribution(build_psi(sep_match, coeff), sep_clock, sep_clock,
                                 threshold=threshold)
    svals = np.linalg.svd(np.abs(sep_beta.values) ** 2, compute_uv=False)
    rank_ratio = float(svals[1] / svals[0]) if len(svals) > 1 else 0.0
    sep_report = classical_constraint_check(sep_beta, sep_clock, sep_clock)

    worst_norm = float(np.max(norm_devs))
    checks = [
        _check("beta-normalization", worst_norm <= cfg["tol_beta_norm"],
               worst_deviation=worst_norm, tolerance=cfg["tol_beta_norm"]),
        _check("support-mismatch-decreasing", decreasing,
               values=",".join(_fmt(s) for s in support)),
        _check("off-support-control", control),
        _check("separable-factorization", rank_ratio <= 1e-12, rank_ratio=rank_ratio),
        _check("ground-peak-mismatch", sep_report.peak_mismatch == 0.0,
               peak_mismatch=sep_report.peak_mismatch),
    ]
    return ["size", "normalization", "support_max", "complement_max", "n_support"], rows, checks


def run_hamilton(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    grid_n = int(cfg["ham_grid"])
    rho_grid = np.linspace(0.1, 0.8, grid_n)
    phi_grid = np.linspace(0.0, 2 * np.pi, grid_n, endpoint=False)
    point = (float(cfg["ham_rho"]), float(cfg["ham_phi"]))
    clocks = [("su2", intensive_su2_clock(float(cfg["ham_su2_j"]))),
              ("h4", intensive_h4_clock(float(cfg["ham_h4_mean"])))]
    vectors = {1: (1.0,), 2: (0.6, 0.8)}
    rows, checks = [], []
    for family, clock in clocks:
        for big_j in (int(round(x)) for x in cfg["ham_js"]):
            v = vectors[big_j]
            pb = pullback_two_form(clock, point[0], point[1], v=v)
            pull_err = float(np.max([abs(pb.jacobian_analytic - pb.analytic),
                                     abs(pb.jacobian_fd - pb.analytic)]))
            ham = hamilton_check(clock, v, rho_grid, phi_grid, method="analytic")
            rows.append([family, big_j, pb.analytic, pull_err, ham.max_residual])
            checks.append(_check(f"pullback-{family}-J{big_j}",
                                 pull_err <= cfg["tol_pullback"],
                                 coefficient=pb.analytic, worst_error=pull_err,
                                 tolerance=cfg["tol_pullback"]))
            checks.append(_check(f"hamilton-{family}-J{big_j}",
                                 ham.max_residual <= cfg["tol_hamilton"],
                                 residual=ham.max_residual, tolerance=cfg["tol_hamilton"]))
            _progress(f"[hamilton] {family} J={big_j}: pullback err {pull_err:.3e}, "
                      f"hamilton {ham.max_residual:.3e}")

    clock = clocks[0][1]
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, center=energy_of_rho(clock, 0.45), width=0.2)
    q_rate = quantum_flow_rate(psi, clock, h_system, 0.45)
    c_rate = classical_flow_rate(clock)
    rate_err = abs(q_rate - c_rate)
    rows.append(["rates", 0, q_rate, c_rate, rate_err])
    checks.append(_check("flow-unification", rate_err <= cfg["tol_flow_match"],
                         quantum_rate=q_rate, classical_rate=c_rate,
                         difference=rate_err, tolerance=cfg["tol_flow_match"]))
    _progress(f"[hamilton] quantum rate {q_rate!r} vs classical {c_rate!r}")
    return ["family", "J", "value_a", "value_b", "value_c"], rows, checks


_RUNNERS: dict[str, Callable] = {
    "verify-algebra": run_verify_algebra,
    "bch-check": run_bch_check,
    "symbol": run_symbol,
    "identity-resolution": run_identity_resolution,
    "constraint": run_constraint,
    "schrodinger": run_schrodinger,
    "stationary-sweep": run_stationary_sweep,
    "phase-audit": run_phase_audit,
    "classical-limit": run_classical_limit,
    "hamilton": run_hamilton,
}
SUBCOMMANDS = (*_RUNNERS, "all")


def run_all(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    # every runner first, so a refusal in any of them writes nothing
    results = [(sub, *_RUNNERS[sub](cfg)) for sub in SUBCOMMANDS[:-1]]
    rows, checks = [], []
    for sub, header, sub_rows, sub_checks in results:
        out, passed = write_outputs(cfg, sub, header, sub_rows, sub_checks)
        _progress(f"[all] {sub}: {'ok' if passed else 'FAILED'} -> {out}")
        rows.append([sub, len(sub_checks), int(passed)])
        checks.append(_check(f"sub-{sub}", passed, checks_run=len(sub_checks)))
    return ["subcommand", "checks", "passed"], rows, checks


# --- argument parsing -------------------------------------------------------

def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat KEY=VALUE config file")
    parser.add_argument("--out", metavar="DIR", help="output root directory")
    parser.add_argument("--seed", metavar="N", help="seed for random coefficient profiles")
    parser.add_argument("--tol-override", metavar="KEY=VAL", action="append",
                        default=[], help="override one tolerance (repeatable)")


_FLAG_MAP: dict[str, list[tuple[str, str, str]]] = {
    # subcommand -> (flag, config key, help)
    "verify-algebra": [("--su2-j", "alg_su2_j", "comma list of spin sizes"),
                       ("--h4-cut", "alg_h4_cut", "oscillator cutoff")],
    "bch-check": [("--su2-j", "bch_su2_j", "comma list of spin sizes"),
                  ("--h4-cut", "bch_h4_cut", "oscillator cutoff"),
                  ("--points", "bch_points", "grid points per axis")],
    "symbol": [("--algebra", "sym_algebra", "su2, h4, su11, or all"),
               ("--rho", "sym_rho", "evaluate at one radial point"),
               ("--points", "sym_points", "points per family grid")],
    "identity-resolution": [("--j", "idr_j", "spin size"),
                            ("--h4-cut", "idr_h4_cut", "oscillator cutoff")],
    "constraint": [("--j", "con_j", "spin size"),
                   ("--profile", "con_profile", "gaussian or random"),
                   ("--rho", "con_rho", "probe radius"),
                   ("--width", "con_width", "profile energy width")],
    "schrodinger": [("--j", "sch_j", "spin size"),
                    ("--rho", "sch_rho", "probe radius"),
                    ("--phi", "sch_phi", "probe angle"),
                    ("--step", "sch_h", "difference step")],
    "stationary-sweep": [("--family", "stat_family", "su2 or h4"),
                         ("--sizes", "stat_sizes", "comma list of clock sizes"),
                         ("--rho", "stat_rho", "probe radius"),
                         ("--width", "stat_width", "profile energy width")],
    "phase-audit": [("--j", "ph_j", "commutator clock spin"),
                    ("--grid", "ph_grid_n", "uncertainty grid points per axis"),
                    ("--sizes", "ph_sizes", "comma list of 2j sweep sizes")],
    "classical-limit": [("--sizes", "cls_sizes", "comma list of spin sizes"),
                        ("--rho", "cls_rho", "profile center radius"),
                        ("--width", "cls_width", "profile energy width"),
                        ("--threshold", "cls_threshold", "support cut fraction")],
    "hamilton": [("--su2-j", "ham_su2_j", "spin size"),
                 ("--h4-mean", "ham_h4_mean", "oscillator mean excitation"),
                 ("--grid", "ham_grid", "grid points per axis"),
                 ("--js", "ham_js", "comma list of system manifold sizes")],
    "all": [],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocklab",
        description="Coherent-state clock laboratory: every library check as a subcommand.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subs.add_parser(name, help=f"run the {name} checks")
        _common_flags(sub)
        for flag, key, help_text in _FLAG_MAP[name]:
            sub.add_argument(flag, dest=key, help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict[str, object] = {"out": args.out, "seed": args.seed}
    for _, key, _ in _FLAG_MAP[args.subcommand]:
        overrides[key] = getattr(args, key)
    try:
        cfg = load_config(args.config, overrides, args.tol_override)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.subcommand == "all":
            header, rows, checks = run_all(cfg)
        else:
            header, rows, checks = _RUNNERS[args.subcommand](cfg)
    except ValueError as exc:  # a library refusal of the configured input
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    out, passed = write_outputs(cfg, args.subcommand, header, rows, checks)
    _progress(f"[{args.subcommand}] {'ok' if passed else 'FAILED'} -> {out}")
    print(out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
