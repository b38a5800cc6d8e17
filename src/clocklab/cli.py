"""Command line experiment runner.

Every check in the library is exposed as a subcommand that writes three
files into a fresh timestamped directory under the output root:

    <out>/<subcommand>/<timestamp>/data.csv      grid / sweep table
    <out>/<subcommand>/<timestamp>/summary.json  pass/fail + metrics
    <out>/<subcommand>/<timestamp>/config.echo   effective configuration

Exit status is 0 when every check passed, 1 when at least one failed,
and 2 when the configuration did not parse, the library refused it (a
``ValueError`` from a runner) or it does not fit in memory (a
``MemoryError``), the last two printed as ``refused: ...``; on exit 2
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
)
from .dynamics import (
    convergence_sweep,
    energy_of_rho,
    propagator_deviation,
    quantum_flow_rate,
    resonant_ladder,
    schrodinger_residual,
    stationary_experiment,
)
from .families import lookup
from .gcs import (
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
# drive an `all` run.  `_TABLE` declares each key once, in the group of the
# subcommand that reads it: a type tag used both to validate the file and to
# canonicalize the echo text that gets hashed (for a choice key, the tuple of
# its allowed values), a default and, where the subcommand exposes it, a flag
# ("--out DIR" shows DIR as metavar) and its help, to which a choice key's
# allowed values are appended.  Every subcommand has the common flags;
# tolerances only --tol-override.  `_KEYS` is the flat view, key -> (type
# tag, default).

_TABLE: dict[str, dict[str, tuple]] = {
    "common": {
        "out": ("str", "runs", "--out DIR", "output root directory"),
        "seed": ("int", 2026, "--seed N", "seed for random coefficient profiles"),
    },
    "verify-algebra": {
        "alg_su2_j": ("floatlist", (0.5, 2.0, 10.0, 25.0, 50.0),
                      "--su2-j", "comma list of spin sizes"),
        "alg_h4_cut": ("int", 256, "--h4-cut", "oscillator cutoff"),
        "alg_su11_k": ("float", 0.5),
        "alg_su11_cut": ("int", 64),
    },
    "bch-check": {
        "bch_su2_j": ("floatlist", (0.5, 2.0, 10.0, 25.0), "--su2-j", "comma list of spin sizes"),
        "bch_h4_cut": ("int", 48, "--h4-cut", "oscillator cutoff"),
        "bch_points": ("int", 12, "--points", "grid points per axis"),
        "bch_rho_max": ("float", 0.7),
    },
    "symbol": {
        "sym_algebra": (("all", "su2", "h4", "su11"), "all", "--algebra", "family to check"),
        "sym_rho": ("str", "", "--rho", "evaluate at one radial point"),
        "sym_points": ("int", 15, "--points", "points per family grid"),
        "sym_su2_j": ("float", 10.0),
        "sym_h4_mean": ("float", 24.0),
        "sym_su11_k": ("float", 0.5),
        "sym_su11_cut": ("int", 96),
    },
    "identity-resolution": {
        "idr_j": ("float", 3.0, "--j", "spin size"),
        "idr_h4_cut": ("int", 48, "--h4-cut", "oscillator cutoff"),
    },
    "constraint": {
        "con_j": ("float", 10.0, "--j", "spin size"),
        "con_profile": (("gaussian", "random"), "gaussian", "--profile", "coefficient profile"),
        "con_rho": ("float", 0.55, "--rho", "probe radius"),
        "con_phi": ("float", 0.3),
        "con_width": ("float", 0.18, "--width", "profile energy width"),
    },
    "schrodinger": {
        "sch_j": ("float", 10.0, "--j", "spin size"),
        "sch_rho": ("float", 0.45, "--rho", "probe radius"),
        "sch_phi": ("float", 0.6, "--phi", "probe angle"),
        "sch_h": ("float", 1e-4, "--step", "difference step"),
        "sch_width": ("float", 0.2),
        "sch_phi_points": ("int", 25),
    },
    "stationary-sweep": {
        "stat_family": (("su2", "h4"), "su2", "--family", "clock family"),
        "stat_sizes": ("floatlist", (5.0, 10.0, 20.0, 40.0),
                       "--sizes", "comma list of clock sizes"),
        "stat_rho": ("float", 0.6, "--rho", "probe radius (su2 only)"),
        "stat_width": ("float", 0.25, "--width", "profile energy width"),
    },
    "phase-audit": {
        "ph_j": ("float", 20.0, "--j", "commutator clock spin"),
        "ph_grid_j": ("float", 15.0),
        "ph_grid_n": ("int", 15, "--grid", "uncertainty grid points per axis"),
        "ph_rho_min": ("float", 0.04),
        "ph_rho_max": ("float", 0.36),
        "ph_small_rho": ("float", 0.2),
        "ph_small_phi": ("float", 0.05),
        "ph_sizes": ("floatlist", (10.0, 20.0, 40.0, 80.0),
                     "--sizes", "comma list of 2j sweep sizes"),
        "ph_exp_rho": ("float", 0.3),
        "ph_exp_phi": ("float", 0.8),
    },
    "classical-limit": {
        "cls_sizes": ("floatlist", (5.0, 10.0, 20.0), "--sizes", "comma list of spin sizes"),
        "cls_rho": ("float", 0.55, "--rho", "profile center radius"),
        "cls_width": ("float", 0.18, "--width", "profile energy width"),
        "cls_sep_j": ("float", 3.0),
        "cls_threshold": ("float", 1e-6, "--threshold", "support cut fraction"),
    },
    "hamilton": {
        "ham_su2_j": ("float", 10.0, "--su2-j", "spin size"),
        "ham_h4_mean": ("float", 32.0, "--h4-mean", "oscillator mean excitation"),
        "ham_grid": ("int", 20, "--grid", "grid points per axis"),
        "ham_rho": ("float", 0.5),
        "ham_phi": ("float", 0.7),
        "ham_js": ("floatlist", (1.0, 2.0), "--js", "comma list of system manifold sizes"),
    },
    "tolerance": {
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
    },
}
_KEYS = {key: spec[:2] for group in _TABLE.values() for key, spec in group.items()}


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
        if isinstance(kind, tuple) and str(raw) not in kind:
            raise ValueError(f"must be one of {', '.join(kind)}")
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
    given = set()  # the keys the file or the command line set
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
            given.add(key)
    env_out = os.environ.get(ENV_OUT)
    if env_out:
        cfg["out"] = env_out
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown option {key!r}")
        cfg[key] = _cast(key, value)
        given.add(key)
    for item in tol_overrides:
        if "=" not in item:
            raise ConfigError(f"--tol-override expects KEY=VAL, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key.startswith("tol_"):
            key = "tol_" + key
        if key not in _TABLE["tolerance"]:
            raise ConfigError(f"unknown tolerance {key!r}")
        cfg[key] = _cast(key, value.strip())
    for key, (kind, _) in _KEYS.items():
        if key.startswith("tol_") and not cfg[key] > 0:
            raise ConfigError(f"tolerance {key!r} must be positive")
        # a grid or cutoff of zero would pass its gates without checking anything
        if kind == "int" and key != "seed" and cfg[key] < 1:
            raise ConfigError(f"{key!r} must be at least 1")
    # one point is phi = 0 alone: it cannot show the phi dependence these checks
    # claim, and there the propagator and the drift compare identities
    for key in ("sch_phi_points", "bch_points", "ham_grid", "ph_grid_n"):
        if cfg[key] < 2:
            raise ConfigError(f"{key!r} must be at least 2, got {cfg[key]!r}")
    # a zero step divides by zero: the residual is NaN, which summary.json cannot hold
    if cfg["sch_h"] == 0:
        raise ConfigError(f"'sch_h' must be nonzero, got {cfg['sch_h']!r}")
    # one size leaves no pair to compare, and all() over no pair is true; the
    # decrease gates compare neighbours, so a list out of order fails them on
    # the input, not the physics (phase-audit and stationary-sweep compare their
    # sizes rounded)
    for key, sizes, how in (("ph_sizes", [int(round(s)) for s in cfg["ph_sizes"]],
                             " once rounded to integers"),
                            ("stat_sizes", [int(round(s)) for s in cfg["stat_sizes"]],
                             " once rounded to integers"),
                            ("cls_sizes", cfg["cls_sizes"], "")):
        if len(sizes) < 2:
            raise ConfigError(f"{key!r} needs at least 2 sizes, got {len(sizes)}")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"{key!r} must strictly ascend{how}, got {_canon(key, cfg[key])}")
    # the h4 sweep pins rho to a ladder level, so a radius given for it checks nothing
    if "stat_rho" in given and cfg["stat_family"] == "h4":
        raise ConfigError("'stat_rho' is for stat_family=su2 only; h4 pins its rho")
    # one grid point is rho = 0 alone, where both symbols vanish exactly
    if not cfg["sym_rho"] and cfg["sym_points"] < 2:
        raise ConfigError(f"'sym_points' must be at least 2, got {cfg['sym_points']!r}")
    # run_hamilton has system vectors for J = 1 and 2 only
    if any(x not in (1.0, 2.0) for x in cfg["ham_js"]):
        raise ConfigError(f"'ham_js' entries must be 1 or 2, got {cfg['ham_js']!r}")
    # a cut of 0 or below keeps every node, one above 1 none
    if not 0.0 < cfg["cls_threshold"] <= 1.0:
        raise ConfigError(f"cls_threshold must lie in (0, 1], got {cfg['cls_threshold']!r}")
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
    out = _run_dir(pathlib.Path(cfg["out"]), sub)
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


def _gate(cfg: dict[str, object], check_id: str, tol_name: str, **metrics: object) -> dict:
    """A check that passes when its first metric, which it reports, is at most the tolerance."""
    tol = cfg[tol_name]
    return _check(check_id, next(iter(metrics.values())) <= tol, **metrics, tolerance=tol)


# --- subcommand bodies ------------------------------------------------------

def run_verify_algebra(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    tol = cfg["tol_cartan"]
    reps = [build_su2_rep(j) for j in cfg["alg_su2_j"]]
    reps.append(build_h4_rep(cfg["alg_h4_cut"]))
    reps.append(build_su11_rep(cfg["alg_su11_k"], cfg["alg_su11_cut"]))
    rows, checks = [], []
    for rep in reps:
        rpt = verify_cartan(rep, tol=tol)
        label = lookup(rep.family).label(rep)
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
    n = cfg["bch_points"]
    rhos = np.linspace(0.02, cfg["bch_rho_max"], n)
    phis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    reps = [build_su2_rep(j) for j in cfg["bch_su2_j"]]
    reps.append(build_h4_rep(cfg["bch_h4_cut"]))
    rows, checks = [], []
    for rep in reps:
        # the expm oracle walked along each ray, the closed forms as one table, both rho-major
        direct = displace(rep, rhos, phis)
        closed = coherent_points(rep, rhos, phis)
        sub = rep.valid_dim if rep.truncated else rep.dim
        # np.max propagates nan, where max() would drop it and pass the gate
        diff = float(np.max(np.linalg.norm(direct[:sub] - closed[:sub], axis=0)))
        rows.append([rep.family, rep.dim, n * n, diff])
        checks.append(_gate(cfg, f"bch-{lookup(rep.family).label(rep)}", "tol_bch",
                            max_difference=diff))
    # after every case, so that a refused radius (the h4 tail) prints only its refusal
    for family, dim, _, diff in rows:
        _progress(f"[bch-check] {family} dim {dim}: max diff {diff:.3e}")
    return ["family", "dim", "grid_points", "max_difference"], rows, checks


def _symbol_rows(clock, family: str, rhos: Sequence[float], relative: bool):
    rows = []
    numeric_all = clock_symbol_numeric(clock, rhos).tolist()
    analytic_all = lookup(family).symbol(clock, np.asarray(rhos, dtype=float)).tolist()
    for rho, numeric, analytic in zip(rhos, numeric_all, analytic_all):
        err = abs(numeric - analytic)
        if relative:
            err = err / max(abs(analytic), 1e-30) if analytic != 0.0 else err
        rows.append([family, float(rho), numeric, analytic, err])
    # np.max propagates nan, where max() would drop it and pass the gate
    return rows, float(np.max([row[-1] for row in rows]))


def run_symbol(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    choice = cfg["sym_algebra"]
    n = cfg["sym_points"]
    single = float(cfg["sym_rho"]) if cfg["sym_rho"] else None
    rows, checks = [], []
    plans = []
    if choice in ("all", "su2"):
        plans.append(("su2", intensive_su2_clock(cfg["sym_su2_j"]),
                      np.linspace(0.0, 0.7, n), False))
    if choice in ("all", "h4"):
        plans.append(("h4", intensive_h4_clock(cfg["sym_h4_mean"]),
                      np.linspace(0.0, 1.5, n), True))
    if choice in ("all", "su11"):
        rep = build_su11_rep(cfg["sym_su11_k"], cfg["sym_su11_cut"])
        plans.append(("su11", build_clock(rep), np.linspace(0.0, 0.5, n), True))
    for family, clock, rhos, relative in plans:
        if single is not None:
            rhos = [single]
        fam_rows, worst = _symbol_rows(clock, family, rhos, relative)
        rows.extend(fam_rows)
        kind = "rel" if relative else "abs"
        checks.append(_gate(cfg, f"symbol-{family}", f"tol_symbol_{family}", worst_error=worst,
                            error_kind=kind))
        _progress(f"[symbol] {family}: worst {kind} error {worst:.3e} over {len(rhos)} points")
    return ["family", "rho", "numeric", "analytic", "error"], rows, checks


def run_identity_resolution(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    j = cfg["idr_j"]
    cut = cfg["idr_h4_cut"]
    cases = [(build_su2_rep(j), f"identity-su2-j{_canon('idr_j', j)}"),
             (build_h4_rep(cut), f"identity-h4-n{cut}")]
    rows, checks = [], []
    for rep, label in cases:
        family = rep.family
        deviation = identity_resolution_check(rep)
        radii, phis, _ = lookup(family).rings(rep)
        rows.append([family, len(radii) * len(phis), deviation])
        checks.append(_gate(cfg, label, f"tol_identity_{family}", deviation=deviation))
        _progress(f"[identity-resolution] {family}: deviation {deviation:.3e}")
    return ["family", "nodes", "deviation"], rows, checks


def run_constraint(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    clock = intensive_su2_clock(cfg["con_j"])
    h_system = resonant_ladder(clock, clock.dim)
    match = ladder_match(clock, h_system)
    rho, phi = cfg["con_rho"], cfg["con_phi"]
    if cfg["con_profile"] == "random":
        coeff = random_profile(match, cfg["seed"])
    else:
        coeff = gaussian_profile(match, center=energy_of_rho(clock, rho),
                                 width=cfg["con_width"])
    psi = build_psi(match, coeff)
    # H psi on the product space, for the diagonal h_c and h_system, as a (dc, dg) array
    h_psi = (clock.energies[:, None] - h_system[None, :]) * psi.matrix
    energy_residual = float(np.linalg.norm(h_psi.reshape(-1)))
    chi_a = conditional_state(psi, clock, rho, phi).chi2
    chi_b = conditional_state(psi, clock, rho, phi + 1.1).chi2
    phase_independence = abs(chi_a - chi_b)
    identity = float(np.max([chi2_identity_residual(psi, clock, r, p)
                             for r in (0.3, rho, 0.8) for p in (0.0, phi)]))
    precs = precs_decomposition_check(psi, clock)
    rows = [["pair", i, k, float(match.clock_evals[i]), abs(c)]
            for (i, k), c in zip(match.pairs, psi.coefficients)]
    rows.append(["chi2", 0, 0, chi_a, chi_b])
    checks = [
        _gate(cfg, "energy-residual", "tol_constraint_energy", residual=energy_residual),
        _gate(cfg, "chi2-phase-independence", "tol_chi2_identity", residual=phase_independence),
        _gate(cfg, "chi2-density-identity", "tol_chi2_identity", residual=identity),
        _check("entanglement-entropy", psi.entanglement_entropy > 0.1,
               entropy=psi.entanglement_entropy, pairs=len(match.pairs)),
        _gate(cfg, "conditional-decomposition", "tol_precs", residual=precs),
    ]
    _progress(f"[constraint] |H psi| {energy_residual:.3e}, entropy "
              f"{psi.entanglement_entropy:.4f}, decomposition {precs:.3e}")
    return ["record", "index_clock", "index_system", "energy", "value"], rows, checks


def run_schrodinger(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    clock = intensive_su2_clock(cfg["sch_j"])
    h_system = resonant_ladder(clock, clock.dim)
    rho, phi = cfg["sch_rho"], cfg["sch_phi"]
    psi = gaussian_state(clock, h_system, center=energy_of_rho(clock, rho),
                         width=cfg["sch_width"])
    res = schrodinger_residual(psi, clock, h_system, rho, phi, h=cfg["sch_h"])
    phis = np.linspace(0.0, 2 * np.pi, cfg["sch_phi_points"])
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
        _gate(cfg, "propagator-deviation", "tol_propagator", deviation=prop.max_deviation,
              points=prop.n_points),
        _gate(cfg, "chi2-drift", "tol_chi2_drift", drift=prop.chi2_drift),
        _check("flow-rate-match", rate_err <= cfg["tol_flow_match"],
               rate=rate, expected=clock.epsilon, tolerance=cfg["tol_flow_match"]),
    ]
    _progress(f"[schrodinger] slope {res.richardson_slope:.4f}, propagator "
              f"{prop.max_deviation:.3e}, drift {prop.chi2_drift:.3e}")
    return ["record", "x", "value"], rows, checks


def run_stationary_sweep(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    family = cfg["stat_family"]
    sizes = [int(round(s)) for s in cfg["stat_sizes"]]
    rho, width = cfg["stat_rho"], cfg["stat_width"]
    def experiment(size: int):
        if family == "su2":
            return stationary_experiment(intensive_su2_clock(float(size)), rho, width)
        # rho is pinned so the energy surface eps*rho^2 sits exactly on a matched
        # ladder level: half the mean, well inside the trustworthy half of the cutoff
        return stationary_experiment(intensive_h4_clock(size), math.sqrt(round(size / 2)), width)
    sweep = convergence_sweep(sizes, experiment)
    rows = [[family, rec.size, rec.residual] for rec in sweep.records]
    # after the sweep, so that a refused size prints nothing first; the sizes
    # ascend, and so do the records' dimensions
    for size, rec in zip(sizes, sweep.records):
        _progress(f"[stationary-sweep] {family} size {size}: residual {rec.residual:.3e}")
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
    clock = build_clock(build_su2_rep(cfg["ph_j"]))
    grid_clock = build_clock(build_su2_rep(cfg["ph_grid_j"]))
    # below 4 levels no band entry has both ends inside rungs 1..dim-2, where the
    # completed commutator is exact: the commutator gate would pass on none, and
    # the grid clock's uncertainty slack goes negative (-0.47 at 2 levels)
    for name, small in (("commutator", clock), ("grid", grid_clock)):
        if small.dim < 4:
            raise ValueError(f"the {name} clock needs 2 j + 1 >= 4 levels, not {small.dim}, "
                             "to have an interior to check")
    phase = build_phase_operator(clock)
    comm = commutator_check(clock, phase)

    grid_phase = build_phase_operator(grid_clock)
    n = cfg["ph_grid_n"]
    rhos = np.linspace(cfg["ph_rho_min"], cfg["ph_rho_max"], n)
    phis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    worst_slack = uncertainty_grid_audit(grid_clock, grid_phase, rhos, phis)

    et = small_phi_energy_time(grid_clock, grid_phase, cfg["ph_small_rho"], cfg["ph_small_phi"])
    small_dev = abs(et.ratio - 1.0)

    sizes = [int(round(s)) for s in cfg["ph_sizes"]]
    records = classical_phase_expectations("su2", sizes, cfg["ph_exp_rho"], cfg["ph_exp_phi"])
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
        _gate(cfg, "interior-commutator", "tol_phase_interior",
              residual=comm.interior_residual, full_residual=comm.full_residual),
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
    rows, norm_devs, reports = [], [], []
    for j in cfg["cls_sizes"]:
        clock = intensive_su2_clock(j)
        psi = gaussian_state(clock, resonant_ladder(clock, clock.dim),
                             center=energy_of_rho(clock, cfg["cls_rho"]), width=cfg["cls_width"])
        beta = beta_distribution(psi, clock, clock, threshold=cfg["cls_threshold"])
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

    sep_clock = intensive_su2_clock(cfg["cls_sep_j"])
    sep_match = ladder_match(sep_clock, resonant_ladder(sep_clock, sep_clock.dim))
    coeff = np.zeros(len(sep_match.pairs))
    coeff[0] = 1.0
    sep_beta = beta_distribution(build_psi(sep_match, coeff), sep_clock, sep_clock,
                                 threshold=cfg["cls_threshold"])
    svals = np.linalg.svd(np.abs(sep_beta.values) ** 2, compute_uv=False)
    rank_ratio = float(svals[1] / svals[0]) if len(svals) > 1 else 0.0
    sep_report = classical_constraint_check(sep_beta, sep_clock, sep_clock)

    worst_norm = float(np.max(norm_devs))
    checks = [
        _gate(cfg, "beta-normalization", "tol_beta_norm", worst_deviation=worst_norm),
        _check("support-mismatch-decreasing", decreasing,
               values=",".join(_fmt(s) for s in support)),
        _check("off-support-control", control),
        _check("separable-factorization", rank_ratio <= 1e-12, rank_ratio=rank_ratio),
        _check("ground-peak-mismatch", sep_report.peak_mismatch == 0.0,
               peak_mismatch=sep_report.peak_mismatch),
    ]
    return ["size", "normalization", "support_max", "complement_max", "n_support"], rows, checks


def run_hamilton(cfg: dict[str, object]) -> tuple[list[str], list, list[dict]]:
    grid_n = cfg["ham_grid"]
    rho_grid = np.linspace(0.1, 0.8, grid_n)
    phi_grid = np.linspace(0.0, 2 * np.pi, grid_n, endpoint=False)
    clocks = [intensive_su2_clock(cfg["ham_su2_j"]), intensive_h4_clock(cfg["ham_h4_mean"])]
    vectors = {1: (1.0,), 2: (0.6, 0.8)}
    rows, checks = [], []
    for clock in clocks:
        family = clock.rep.family
        for big_j in (int(round(x)) for x in cfg["ham_js"]):
            v = vectors[big_j]
            pb = pullback_two_form(clock, cfg["ham_rho"], cfg["ham_phi"], v=v)
            pull_err = float(np.max([abs(pb.jacobian_analytic - pb.analytic),
                                     abs(pb.jacobian_fd - pb.analytic)]))
            ham = hamilton_check(clock, v, rho_grid, phi_grid, method="analytic")
            rows.append([family, big_j, pb.analytic, pull_err, ham.max_residual])
            checks.append(_gate(cfg, f"pullback-{family}-J{big_j}", "tol_pullback",
                                worst_error=pull_err, coefficient=pb.analytic))
            checks.append(_gate(cfg, f"hamilton-{family}-J{big_j}", "tol_hamilton",
                                residual=ham.max_residual))
            _progress(f"[hamilton] {family} J={big_j}: pullback err {pull_err:.3e}, "
                      f"hamilton {ham.max_residual:.3e}")

    clock = clocks[0]
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, center=energy_of_rho(clock, 0.45), width=0.2)
    q_rate = quantum_flow_rate(psi, clock, h_system, 0.45)
    c_rate = classical_flow_rate(clock)
    rate_err = abs(q_rate - c_rate)
    rows.append(["rates", 0, q_rate, c_rate, rate_err])
    checks.append(_gate(cfg, "flow-unification", "tol_flow_match", difference=rate_err,
                        quantum_rate=q_rate, classical_rate=c_rate))
    _progress(f"[hamilton] quantum rate {_fmt(q_rate)} vs classical {_fmt(c_rate)}")
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

def _add_flags(parser: argparse.ArgumentParser, group: str) -> None:
    for key, spec in _TABLE.get(group, {}).items():
        if len(spec) == 4:
            flag, _, metavar = spec[2].partition(" ")
            choices = f": {', '.join(spec[0])}" if isinstance(spec[0], tuple) else ""
            parser.add_argument(flag, dest=key, metavar=metavar or None, help=spec[3] + choices)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocklab",
        description="Coherent-state clock laboratory: every library check as a subcommand.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subs.add_parser(name, help=f"run the {name} checks")
        sub.add_argument("--config", metavar="PATH", help="flat KEY=VALUE config file")
        _add_flags(sub, "common")
        sub.add_argument("--tol-override", metavar="KEY=VAL", action="append",
                         default=[], help="override one tolerance (repeatable)")
        _add_flags(sub, name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the dest of every table flag is its config key
    overrides = {key: value for key, value in vars(args).items() if key in _KEYS}
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
    except (ValueError, MemoryError) as exc:  # a library refusal, or an input too large to hold
        print(f"refused: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    out, passed = write_outputs(cfg, args.subcommand, header, rows, checks)
    _progress(f"[{args.subcommand}] {'ok' if passed else 'FAILED'} -> {out}")
    print(out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
