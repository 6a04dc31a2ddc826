"""Check one CLI report against the reference values of its query.

``check`` returns ``(status, answered, reason)``: the status is ``ok``, ``exit``
(non-zero exit code), ``unconverged`` (a series that reports
``converged=false``) or ``mismatch`` (the report disagrees with the
reference), ``answered`` counts the detection probabilities the report
answered correctly, and ``reason`` says what failed.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from workloads import Query

TWO_PI = 2.0 * math.pi
#: Absolute agreement required of probabilities, bounds and energies.
ATOL = 1e-9


class Mismatch(Exception):
    """The report disagrees with the reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(a: float, b: float, tol: float = ATOL) -> bool:
    return abs(a - b) <= tol


def check(query: Query, rc: int, report: dict | None) -> tuple[str, int, str]:
    """Status, count of correctly answered probabilities, and a reason on failure."""
    if rc != 0 or report is None:
        return "exit", 0, f"exit code {rc}"
    try:
        _expect(report.get("command") == query.command, "wrong command in report")
        answered = _CHECKS[query.command](query.expect, report)
    except Mismatch as exc:
        return "mismatch", 0, str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "mismatch", 0, f"malformed report: {exc!r}"
    if query.command == "simulate" and not report["series"]["converged"]:
        return "unconverged", 0, f"converged=false after n={report['series']['n_used']}"
    return "ok", answered, ""


def _check_analyze(exp: dict, rep: dict) -> int:
    rows = rep["results"]
    _expect(len(rows) == len(exp["inits"]), f"{len(rows)} rows for {len(exp['inits'])} inits")
    _expect(rep["group_order"] == exp["group_order"],
            f"group order {rep['group_order']} != {exp['group_order']}")
    _expect(rep["stabilizer_order"] == exp["stabilizer_order"],
            f"stabilizer order {rep['stabilizer_order']} != {exp['stabilizer_order']}")
    for row, pdet, table in zip(rows, exp["pdet"], exp["tables"]):
        label = f"init {row['init']}"
        _expect(_close(row["pdet"], pdet), f"{label}: pdet {row['pdet']!r} != reference {pdet!r}")
        if table is not None:
            _expect(_close(pdet, table), f"{label}: reference {pdet!r} != closed form {table!r}")
        _expect(row["orbit_rank"] >= 1, f"{label}: orbit rank {row['orbit_rank']}")
        _expect(_close(row["upper_bound"], 1.0 / row["orbit_rank"]),
                f"{label}: bound {row['upper_bound']!r} != 1/orbit_rank")
        _expect(pdet <= row["upper_bound"] + ATOL, f"{label}: reference {pdet!r} above the bound")
        if row["saturated"]:
            _expect(_close(pdet, row["upper_bound"]), f"{label}: saturated but pdet below the bound")
        _expect(row["bright_dim"] == exp["bright"], f"{label}: bright_dim {row['bright_dim']} != {exp['bright']}")
        _expect(row["dark_dim"] == exp["n"] - exp["bright"], f"{label}: dark_dim {row['dark_dim']}")
    if len(rows) == exp["n"]:
        total = math.fsum(row["pdet"] for row in rows)
        _expect(_close(total, exp["bright"], 1e-8), f"sum of pdet {total!r} != bright dimension {exp['bright']}")
    return len(rows)


def _in_spectrum(value: float, spectrum: list[float]) -> bool:
    i = bisect_left(spectrum, value)
    return any(_close(value, spectrum[j]) for j in (i - 1, i) if 0 <= j < len(spectrum))


def _check_quotient(exp: dict, rep: dict) -> int:
    classes = rep["classes"]
    members = sorted(m for cls in classes for m in cls["members"])
    _expect(members == list(range(exp["n"])), "classes do not partition the nodes")
    _expect(all(cls["multiplicity"] == len(cls["members"]) for cls in classes), "multiplicity != class size")
    _expect(sum(cls["multiplicity"] for cls in classes) == exp["n"], "multiplicities do not sum to n")
    (detect_class,) = [cls for cls in classes if cls["id"] == rep["detect_class"]]
    _expect(detect_class["members"] == [exp["detect"]], "detector class is not the singleton detector")
    _expect(rep["reduced_dim"] == len(classes), "reduced_dim != number of classes")
    if exp["classes"] is not None:
        _expect(len(classes) == exp["classes"], f"{len(classes)} classes, closed form {exp['classes']}")
    sym = rep["symmetric_spectrum"]
    _expect(len(sym) == len(classes), "symmetric spectrum size != number of classes")
    for e in sym:
        _expect(_in_spectrum(e, exp["spectrum"]), f"quotient energy {e!r} not in the full spectrum")
    sym_sorted = sorted(sym)
    for e in exp["bright_energies"]:
        _expect(_in_spectrum(e, sym_sorted), f"bright energy {e!r} missing from the quotient spectrum")
    return 0


def _check_spectrum(exp: dict, rep: dict) -> int:
    values, tau = exp["values"], exp["tau"]
    got = rep["eigenvalues"]
    _expect(len(got) == len(values), "wrong number of eigenvalues")
    _expect(all(_close(a, b) for a, b in zip(got, values)), "eigenvalues differ from the reference")
    sectors = rep["sectors"]
    _expect(len(sectors) == len(values), "disorder leaves every sector nondegenerate")
    phases = [s["phase"] for s in sectors]
    _expect(phases == sorted(phases), "sectors not ordered by phase")
    for s in sectors:
        _expect(s["degeneracy"] == 1 and len(s["energies"]) == 1, "degenerate sector")
        _expect(_close(s["phase"], (s["energies"][0] * tau) % TWO_PI, 1e-8),
                "sector phase != E * tau mod 2 pi")
    _expect(sorted(e for s in sectors for e in s["energies"]) == sorted(got), "sector energies != eigenvalues")
    return 0


def _check_resonances(exp: dict, rep: dict) -> int:
    levels = np.array(exp["levels"])
    entries = rep["resonances"]
    _expect(rep["range"] == [exp["lo"], exp["hi"]], "wrong range")
    taus = np.array([e["tau"] for e in entries])
    _expect(bool(np.all(taus > exp["lo"])) and bool(np.all(taus <= exp["hi"] * (1 + 1e-12))), "tau out of range")
    _expect(bool(np.all(np.diff(taus) > 0)), "resonances not strictly ascending")
    pairs = np.array([p for e in entries for p in e["pairs"]], dtype=np.int64).reshape(-1, 3)
    tau_of_pair = np.repeat(taus, [len(e["pairs"]) for e in entries])
    _expect(bool(np.all((pairs[:, 0] < pairs[:, 1]) & (pairs[:, 2] >= 1))), "malformed level pair")
    _expect(bool(np.all(pairs[:, 1] < levels.shape[0])), "level index out of range")
    phase = tau_of_pair * np.abs(levels[pairs[:, 1]] - levels[pairs[:, 0]])
    _expect(bool(np.all(np.abs(phase - TWO_PI * pairs[:, 2]) <= 1e-8 * np.maximum(1.0, phase))),
            "tau * |E_l - E_l'| != 2 pi k")
    _expect(pairs.shape[0] == exp["triples"], f"{pairs.shape[0]} level pairs, reference {exp['triples']}")
    _expect(len(entries) == exp["distinct"], f"{len(entries)} periods, reference {exp['distinct']}")
    return 0


def _check_simulate(exp: dict, rep: dict) -> int:
    series = rep["series"]
    ref = exp["pdet"]
    tol = exp["multiple"] * exp["rel_tol"] * ref + 1e-12
    _expect(abs(series["estimate"] - ref) <= tol,
            f"estimate {series['estimate']!r} differs from reference {ref!r} by more than {tol:.1e}")
    _expect(_close(rep["spectral_pdet"], ref), f"spectral_pdet {rep['spectral_pdet']!r} != reference {ref!r}")
    first, partial = rep["first_detection"], rep["partial_sums"]
    _expect(len(first) == len(partial) == series["n_used"], "series length != n_used")
    _expect(all(0.0 <= f <= 1.0 for f in first), "first-detection probability outside [0, 1]")
    _expect(_close(partial[-1], series["estimate"]), "last partial sum != estimate")
    return 1


_CHECKS = {
    "analyze": _check_analyze,
    "quotient": _check_quotient,
    "spectrum": _check_spectrum,
    "resonances": _check_resonances,
    "simulate": _check_simulate,
}
