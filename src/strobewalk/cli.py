"""Command-line interface.

Subcommands: ``analyze`` (detection probabilities, bounds and saturation),
``simulate`` (direct protocol run next to the spectral value), ``quotient``
(symmetrized system export), ``resonances`` (resonant detection periods)
and ``spectrum`` (eigenvalues and sectors).  Reports are deterministic:
identical invocations produce identical bytes.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .detection import DetectionSetup, first_detection_amplitudes, pdet_series, pdet_spectral
from .errors import (
    GraphFormatError,
    GraphInvariantError,
    GraphSpecError,
    GroupSearchError,
    NonLocalizedDetectionError,
    SpectralError,
    StateError,
    StrobewalkError,
)
from .graphs import GENERATOR_NAMES, build_named, hamiltonian, load_graph, save_graph
from .quotient import quotient_graph, symmetric_eigensystem, symmetrize
from .spectral import diagonalize, fold_sectors, is_resonant, resonant_periods
from .states import as_state, localized_state
from .symmetry import (
    automorphisms,
    orbit_rank,
    saturation_check,
    stabilizer,
    symmetry_projector,
    upper_bound,
)

CONFIG_EXIT = 2
NUMERICAL_EXIT = 3

_TOL_KEYS = ("phase", "dark", "rank", "resonance", "series-rel", "series-cap")


class ConfigError(ValueError):
    """Bad command-line configuration."""


def _parse_tolerances(entries: list[str]) -> dict[str, float]:
    tols: dict[str, float] = {}
    for entry in entries or []:
        key, sep, value = entry.partition("=")
        if not sep or key not in _TOL_KEYS:
            raise ConfigError(
                f"bad --tol entry {entry!r}; expected KEY=VALUE with KEY in {', '.join(_TOL_KEYS)}"
            )
        try:
            tols[key] = float(value)
        except ValueError:
            raise ConfigError(f"bad --tol value in {entry!r}") from None
    return tols


def _load_graph_source(source: str):
    name = source.partition(":")[0]
    if name in GENERATOR_NAMES:
        return build_named(source)
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"graph source {source!r} is neither a known generator ({', '.join(GENERATOR_NAMES)}) "
            "nor an existing file"
        )
    return load_graph(path.read_bytes())


def _load_state_file(path: str, dim: int) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read state file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"state file {path!r}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "amplitudes" not in doc:
        raise ConfigError(f"state file {path!r} must be an object with an 'amplitudes' field")
    amps = []
    for k, entry in enumerate(doc["amplitudes"]):
        if isinstance(entry, (int, float)):
            amps.append(complex(entry))
        elif isinstance(entry, list) and len(entry) == 2:
            amps.append(complex(entry[0], entry[1]))
        else:
            raise ConfigError(f"state file {path!r}: amplitudes[{k}] must be a number or [re, im]")
    vec = np.array(amps, dtype=complex)
    try:
        return as_state(vec, dim)
    except StateError as exc:
        raise ConfigError(f"state file {path!r}: {exc}") from exc


def _parse_state(spec: str, dim: int, what: str) -> np.ndarray:
    try:
        node = int(spec)
    except ValueError:
        return _load_state_file(spec, dim)
    if not 0 <= node < dim:
        raise ConfigError(f"{what} node {node} out of range for {dim} nodes")
    return localized_state(dim, node)


def _parse_tau(text: str) -> float:
    try:
        tau = float(text)
    except ValueError:
        raise ConfigError(f"--tau must be a number, got {text!r}") from None
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"--tau must be positive and finite, got {tau}")
    return tau


def _parse_tau_range(text: str) -> tuple[float, float]:
    if text.startswith("scan:"):
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"--tau scan must look like scan:min:max[:steps], got {text!r}")
        try:
            lo, hi = float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"bad scan bounds in {text!r}") from None
        if not (0 <= lo < hi):
            raise ConfigError(f"scan range must satisfy 0 <= min < max, got {text!r}")
        return lo, hi
    return 0.0, _parse_tau(text)


def _fraction_of(value: float, max_denominator: int = 64) -> str | None:
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) < 1e-9:
        return f"{frac.numerator}/{frac.denominator}"
    return None


def _graph_summary(source: str, graph) -> dict:
    return {"source": source, "nodes": graph.node_count, "edges": graph.edge_count}


def _emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _to_csv(report)
    else:
        text = _to_text(report)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    command = report["command"]
    if command == "analyze":
        writer.writerow(
            ["init", "pdet", "pdet_fraction", "orbit_rank", "upper_bound",
             "upper_bound_fraction", "saturated", "bright_dim", "dark_dim"]
        )
        for row in report["results"]:
            writer.writerow(
                [row["init"], row["pdet"], row["pdet_fraction"], row["orbit_rank"],
                 row["upper_bound"], row["upper_bound_fraction"], row["saturated"],
                 row["bright_dim"], row["dark_dim"]]
            )
    elif command == "simulate":
        writer.writerow(["n", "first_detection_probability", "partial_sum"])
        for n, (f, s) in enumerate(zip(report["first_detection"], report["partial_sums"]), start=1):
            writer.writerow([n, f, s])
    elif command == "quotient":
        writer.writerow(["class_id", "members", "multiplicity"])
        for cls in report["classes"]:
            writer.writerow([cls["id"], " ".join(map(str, cls["members"])), cls["multiplicity"]])
    elif command == "resonances":
        writer.writerow(["tau", "level_pairs"])
        for entry in report["resonances"]:
            pairs = ";".join(f"{l0}-{l1}x{k}" for l0, l1, k in entry["pairs"])
            writer.writerow([entry["tau"], pairs])
    elif command == "spectrum":
        writer.writerow(["sector", "phase", "degeneracy", "energies"])
        for idx, sector in enumerate(report["sectors"]):
            writer.writerow(
                [idx, sector["phase"], sector["degeneracy"], " ".join(map(str, sector["energies"]))]
            )
    else:  # pragma: no cover - parser restricts commands
        raise ConfigError(f"no CSV layout for command {command!r}")
    return buf.getvalue()


def _to_text(report: dict) -> str:
    lines = [f"strobewalk {report['command']}  graph={report['graph']['source']} "
             f"({report['graph']['nodes']} nodes)"]
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    command = report["command"]
    if command == "analyze":
        lines.append(
            f"detect={report['detect']}  tau={report['tau']}  "
            f"group order={report['group_order']}  stabilizer order={report['stabilizer_order']}  "
            f"saturated={report['saturated']}"
        )
        lines.append(f"{'init':>8}  {'pdet':>12}  {'bound':>12}  {'rank':>4}  bright/dark")
        for row in report["results"]:
            pdet_note = f" ({row['pdet_fraction']})" if row["pdet_fraction"] else ""
            bound_note = f" ({row['upper_bound_fraction']})" if row["upper_bound_fraction"] else ""
            lines.append(
                f"{row['init']:>8}  {row['pdet']:>12.9f}{pdet_note}  "
                f"{row['upper_bound']:>12.9f}{bound_note}  {row['orbit_rank']:>4}  "
                f"{row['bright_dim']}/{row['dark_dim']}"
            )
    elif command == "simulate":
        series = report["series"]
        lines.append(
            f"detect={report['detect']}  init={report['init']}  tau={report['tau']}"
        )
        lines.append(
            f"series estimate={series['estimate']:.9f} after n={series['n_used']} "
            f"(converged={series['converged']})  spectral={report['spectral_pdet']:.9f}"
        )
        show = min(len(report["first_detection"]), 20)
        for n in range(show):
            lines.append(
                f"  n={n + 1:>4}  F={report['first_detection'][n]:.3e}  "
                f"sum={report['partial_sums'][n]:.9f}"
            )
        if len(report["first_detection"]) > show:
            lines.append(f"  ... {len(report['first_detection']) - show} more attempts")
    elif command == "quotient":
        lines.append(
            f"detect={report['detect']}  classes={report['reduced_dim']} "
            f"(from {report['original_dim']} nodes)"
        )
        for cls in report["classes"]:
            mark = " <- detect" if cls["id"] == report["detect_class"] else ""
            lines.append(f"  class {cls['id']}: nodes {cls['members']} (x{cls['multiplicity']}){mark}")
        lines.append(f"symmetric spectrum: {report['symmetric_spectrum']}")
    elif command == "resonances":
        lines.append(f"range=({report['range'][0]}, {report['range'][1]}]")
        for entry in report["resonances"]:
            pairs = ", ".join(f"levels {l0}&{l1} (k={k})" for l0, l1, k in entry["pairs"])
            lines.append(f"  tau_c = {entry['tau']:.12g}  from {pairs}")
        if not report["resonances"]:
            lines.append("  none")
    elif command == "spectrum":
        lines.append(f"eigenvalues: {report['eigenvalues']}")
        lines.append(f"tau={report['tau']}")
        for idx, sector in enumerate(report["sectors"]):
            lines.append(
                f"  sector {idx}: phase={sector['phase']:.12g} degeneracy={sector['degeneracy']} "
                f"energies={sector['energies']}"
            )
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> dict:
    tols = _parse_tolerances(args.tol)
    graph = _load_graph_source(args.graph)
    h = hamiltonian(graph, 1.0)
    tau = _parse_tau(args.tau)
    es = diagonalize(h)
    sd = fold_sectors(es, tau, phase_tol=tols.get("phase", 1e-8))
    warnings = list(sd.warnings)
    resonant = is_resonant(es, tau, tol=tols.get("resonance", 1e-9))
    if resonant:
        warnings.append(
            f"tau={tau} is a resonant detection period: sectors merge and the "
            "symmetry analysis relies on the folded sectors"
        )
    psi_d = _parse_state(args.detect, graph.node_count, "detect")
    group = automorphisms(graph)
    stab = stabilizer(group, psi_d)
    projector = symmetry_projector(stab)
    saturated, symmetric_dark_dim = saturation_check(sd, stab, psi_d, projector=projector)

    if args.init == "all":
        inits = [(str(r), localized_state(graph.node_count, r)) for r in range(graph.node_count)]
    else:
        inits = [(args.init, _parse_state(args.init, graph.node_count, "init"))]

    dark_tol = tols.get("dark", 1e-12)
    results = []
    for label, psi_in in inits:
        rep = pdet_spectral(sd, psi_d, psi_in, dark_tol=dark_tol)
        bound = upper_bound(stab, psi_in, projector=projector)
        results.append(
            {
                "init": label,
                "pdet": rep.pdet,
                "pdet_fraction": _fraction_of(rep.pdet),
                "orbit_rank": orbit_rank(stab, psi_in, rank_tol=tols.get("rank", 1e-10)),
                "upper_bound": bound,
                "upper_bound_fraction": _fraction_of(bound),
                "saturated": saturated,
                "bright_dim": rep.bright_dim,
                "dark_dim": rep.dark_dim,
                "excluded_sectors": list(rep.excluded_sectors),
            }
        )
    return {
        "command": "analyze",
        "graph": _graph_summary(args.graph, graph),
        "tau": tau,
        "tau_resonant": resonant,
        "detect": args.detect,
        "group_order": group.order,
        "stabilizer_order": stab.order,
        "saturated": saturated,
        "symmetric_dark_dim": symmetric_dark_dim,
        "results": results,
        "warnings": warnings,
    }


def cmd_simulate(args) -> dict:
    tols = _parse_tolerances(args.tol)
    graph = _load_graph_source(args.graph)
    h = hamiltonian(graph, 1.0)
    tau = _parse_tau(args.tau)
    psi_d = _parse_state(args.detect, graph.node_count, "detect")
    if args.init == "all":
        raise ConfigError("simulate requires a single --init state")
    psi_in = _parse_state(args.init, graph.node_count, "init")

    es = diagonalize(h)
    warnings = []
    resonant = is_resonant(es, tau, tol=tols.get("resonance", 1e-9))
    if resonant:
        warnings.append(
            f"tau={tau} is a resonant detection period; the series may not converge"
        )
    setup = DetectionSetup(hamiltonian=h, detect_state=psi_d, initial_state=psi_in, tau=tau)
    series = pdet_series(
        setup,
        rel_tol=tols.get("series-rel", 1e-6),
        n_cap=int(tols.get("series-cap", 100_000)),
    )
    amps = first_detection_amplitudes(setup, series.n_used)
    probs = np.abs(amps) ** 2
    partial = np.cumsum(probs)
    sd = fold_sectors(es, tau, phase_tol=tols.get("phase", 1e-8))
    spectral = pdet_spectral(sd, psi_d, psi_in, dark_tol=tols.get("dark", 1e-12))
    if not series.converged:
        warnings.append(f"series did not converge within n={series.n_used}")
    return {
        "command": "simulate",
        "graph": _graph_summary(args.graph, graph),
        "tau": tau,
        "tau_resonant": resonant,
        "detect": args.detect,
        "init": args.init,
        "series": {
            "estimate": series.estimate,
            "n_used": series.n_used,
            "converged": series.converged,
        },
        "spectral_pdet": spectral.pdet,
        "first_detection": [float(f) for f in probs],
        "partial_sums": [float(s) for s in partial],
        "warnings": warnings,
    }


def cmd_quotient(args) -> dict:
    graph = _load_graph_source(args.graph)
    h = hamiltonian(graph, 1.0)
    psi_d = _parse_state(args.detect, graph.node_count, "detect")
    group = automorphisms(graph)
    stab = stabilizer(group, psi_d)
    q = symmetrize(h, stab, psi_d)
    qgraph, _ = quotient_graph(q)
    spectrum = symmetric_eigensystem(q)
    graph_doc = json.loads(save_graph(qgraph).decode("utf-8"))
    report = {
        "command": "quotient",
        "graph": _graph_summary(args.graph, graph),
        "tau": None,
        "detect": args.detect,
        "original_dim": q.original_dim,
        "reduced_dim": q.reduced_dim,
        "detect_class": q.detect_class,
        "classes": [
            {"id": cls.id, "members": list(cls.members), "multiplicity": cls.multiplicity}
            for cls in q.classes
        ],
        "symmetric_spectrum": [float(e) for e in spectrum.eigenvalues],
        "quotient_graph": graph_doc,
        "warnings": [],
    }
    if args.out:
        Path(args.out + ".graph.json").write_bytes(save_graph(qgraph))
    return report


def cmd_resonances(args) -> dict:
    graph = _load_graph_source(args.graph)
    h = hamiltonian(graph, 1.0)
    es = diagonalize(h)
    lo, hi = _parse_tau_range(args.tau)
    periods = [p for p in resonant_periods(es, hi) if p.tau > lo]
    return {
        "command": "resonances",
        "graph": _graph_summary(args.graph, graph),
        "tau": None,
        "range": [lo, hi],
        "resonances": [
            {"tau": p.tau, "pairs": [list(pair) for pair in p.pairs]} for p in periods
        ],
        "warnings": [],
    }


def cmd_spectrum(args) -> dict:
    tols = _parse_tolerances(args.tol)
    graph = _load_graph_source(args.graph)
    h = hamiltonian(graph, 1.0)
    tau = _parse_tau(args.tau)
    es = diagonalize(h)
    sd = fold_sectors(es, tau, phase_tol=tols.get("phase", 1e-8))
    return {
        "command": "spectrum",
        "graph": _graph_summary(args.graph, graph),
        "tau": tau,
        "eigenvalues": [float(e) for e in es.eigenvalues],
        "sectors": [
            {
                "phase": float(s.phase),
                "degeneracy": s.degeneracy,
                "energies": [float(e) for e in s.energies],
            }
            for s in sd.sectors
        ],
        "warnings": list(sd.warnings),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strobewalk",
        description="Total detection probability of stroboscopically monitored quantum walks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, detect=False, init=False, tau_default="1.0"):
        p.add_argument("--graph", required=True, help="generator spec (e.g. ring:6) or graph JSON path")
        if detect:
            p.add_argument("--detect", required=True, help="detection node id or state file path")
        if init:
            p.add_argument("--init", required=True, help="initial node id, state file path, or 'all'")
        p.add_argument("--tau", default=tau_default, help="detection period (default %(default)s)")
        p.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                       help=f"override a tolerance; keys: {', '.join(_TOL_KEYS)}")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    add_common(sub.add_parser("analyze", help="detection probability, bound and saturation"),
               detect=True, init=True)
    add_common(sub.add_parser("simulate", help="direct protocol summation next to the spectral value"),
               detect=True, init=True)
    add_common(sub.add_parser("quotient", help="symmetrized (quotient) system for a detection node"),
               detect=True)
    add_common(sub.add_parser("resonances", help="resonant detection periods up to a bound"),
               tau_default="6.2831853")
    add_common(sub.add_parser("spectrum", help="eigenvalues and quasienergy sectors"))
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "quotient": cmd_quotient,
    "resonances": cmd_resonances,
    "spectrum": cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (ConfigError, GraphSpecError, GraphFormatError, GraphInvariantError,
            StateError, NonLocalizedDetectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except (SpectralError, GroupSearchError, StrobewalkError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    _emit(report, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
