"""Command-line interface.

Subcommands: ``analyze`` (detection probabilities, bounds and saturation),
``simulate`` (direct protocol run next to the spectral value), ``quotient``
(symmetrized system export), ``resonances`` (resonant detection periods)
and ``spectrum`` (eigenvalues and sectors).  Reports are deterministic:
identical invocations produce identical bytes.

A command returns its report as a dict, written as JSON, CSV or text.  The
JSON writer (:func:`_to_json`) matches ``json.dumps(indent=2,
sort_keys=True)`` byte for byte.  A report's top-level values may be
columns: a ``_Table``, a list of objects given as named columns, each a flat
sequence, a 1-d or 2-d numpy array or a ``_Ragged`` column (members plus
per-row lengths), or an ``_Array``, a list of numbers held as a numpy
array.  ``resonances`` hands its listing over as such a table, straight
from the spectral arrays, as ``spectrum`` does its sectors and ``analyze``
its rows, and ``simulate`` its per-attempt lists as two ``_Array`` values;
the CSV and text layouts read the same columns.  The writer writes these
columns itself and leaves every other value to ``json.dumps``.  Long ones
go to :mod:`._floattext`, which writes the bytes of ``float.__repr__`` and
``int.__repr__`` in a fixed number of numpy passes: the finite float
``_Array`` values of a report, if they hold ``_BULK_ARRAYS`` values or more
between them, through one ``_floattext.join_each``; and a table of
``_BULK`` rows or more whose columns are all numeric arrays through
``_floattext.layout``, as one text row per member of its ragged column with
the keys, brackets and indentation between the numbers.

Exit codes: 0 on success, 2 on configuration errors (an input file that
cannot be read and an ``--out`` path that cannot be written among them), 3
on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count, islice, repeat, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, detection, spectral, symmetry
from .detection import DetectionSetup, _DetectorProjection, _series
from .errors import (
    GraphFormatError,
    GraphInvariantError,
    GraphSpecError,
    NonLocalizedDetectionError,
    StateError,
    StrobewalkError,
)
from .graphs import GENERATOR_NAMES, build_named, graph_document, hamiltonian, load_graph, save_graph
from .quotient import quotient_graph, symmetrize
from .spectral import diagonalize, fold_sectors, is_resonant, resonant_periods
from .states import as_state, localized_node, localized_state
from .symmetry import automorphisms, orbit_rank, stabilizer, symmetry_projector, upper_bound

CONFIG_EXIT = 2
NUMERICAL_EXIT = 3

#: The ``--tol`` keys and their defaults, the library's own.  Each command takes the keys it reads.
_TOL_DEFAULTS = {
    "phase": spectral.PHASE_GROUP_TOL,
    "dark": detection.DARK_OVERLAP_TOL,
    "rank": symmetry.RANK_TOL,
    "series-rel": detection.SERIES_REL_TOL,
    "series-cap": detection.DEFAULT_SERIES_CAP,
}


class ConfigError(ValueError):
    """Bad command-line configuration."""


def _parse_tolerances(entries: list[str], keys: tuple[str, ...]) -> dict[str, float]:
    """The command's ``keys`` at their defaults, with the ``--tol`` entries applied."""
    tols = {key: _TOL_DEFAULTS[key] for key in keys}
    for entry in entries:
        key, sep, value = entry.partition("=")
        if not sep or key not in tols:
            raise ConfigError(f"bad --tol entry {entry!r}; expected KEY=VALUE with KEY in {', '.join(keys)}")
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"bad --tol value in {entry!r}") from None
        if key == "series-cap":
            valid, need = number >= 1 and number.is_integer(), "a whole number >= 1"
        elif key == "series-rel":
            valid, need = number > 0, "positive"
        else:
            valid, need = number >= 0, "non-negative"
        if not (valid and math.isfinite(number)):
            raise ConfigError(f"--tol {key} must be finite and {need}, got {value!r}")
        tols[key] = number
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
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read graph file {source!r}: {exc.strerror or exc}") from exc
    return load_graph(data)


def _load_state_file(path: str, dim: int) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read state file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"state file {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"state file {path!r}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("amplitudes"), list):
        raise ConfigError(f"state file {path!r} must be an object with an 'amplitudes' list")
    amps = []
    for k, entry in enumerate(doc["amplitudes"]):
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        # JSON true and false are no amplitudes, as they are no edge weights in ``load_graph``.
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
            raise ConfigError(f"state file {path!r}: amplitudes[{k}] must be a number or [re, im]")
        try:
            amps.append(complex(*parts))
        except OverflowError:
            raise ConfigError(f"state file {path!r}: amplitudes[{k}] is too large") from None
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
        if len(parts) != 3:
            raise ConfigError(f"--tau scan must look like scan:min:max, got {text!r}")
        try:
            lo, hi = float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"bad scan bounds in {text!r}") from None
        if not (0 <= lo < hi < math.inf):
            raise ConfigError(f"scan range must satisfy 0 <= min < max < inf, got {text!r}")
        return lo, hi
    return 0.0, _parse_tau(text)


def _fractions_of(values: list[float]) -> list[str | None]:
    """``"p/q"`` for each value within 1e-9 of a fraction with ``q <= 64``, else None.

    For ``|v| <= 2**20``, probabilities included, this is
    ``Fraction(v).limit_denominator(64)`` kept when it lies within 1e-9 of
    ``v``: two distinct fractions with denominators up to 64 lie at least
    1/4032 apart, so at most one is that close, and the smallest ``q`` whose
    rounded ``v * q`` gets there gives it in lowest terms.
    """
    v = np.asarray(values, dtype=float)[:, None]
    q = np.arange(1.0, 65.0)
    p = np.rint(v * q)
    close = np.abs(p / q - v) < 1e-9
    first = close.argmax(axis=1)
    return [f"{int(p[i, j])}/{j + 1}" if close[i, j] else None for i, j in enumerate(first.tolist())]


def _emit(report: dict, fmt: str, out: str | None, sidecars: dict[str, bytes]) -> None:
    """Write the report to ``out``, or to stdout; a JSON report's final newline
    is written on its own, so that the text is not copied to append it.

    The ``sidecars`` files (path to bytes) are written first; if the report
    then cannot be written they are removed, so a failed run leaves no file.
    """
    if fmt == "json":
        texts = (_to_json(report, "\n"), "\n")
    elif fmt == "csv":
        texts = (_to_csv(report),)
    else:
        texts = (_to_text(report),)
    for path, data in sidecars.items():
        _write_file(path, [data], "wb")
    if out:
        try:
            _write_file(out, texts, "w")
        except ConfigError:
            for path in sidecars:
                Path(path).unlink()
            raise
    else:
        sys.stdout.writelines(texts)


def _write_file(path: str, texts, mode: str) -> None:
    """Write ``texts`` to ``path``; a path that cannot be written is a configuration error."""
    try:
        with open(path, mode) as f:
            f.writelines(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


@dataclass(frozen=True)
class _Ragged:
    """A column of arrays: array ``i`` holds the next ``lengths[i]`` of ``members``.

    ``members`` is itself a column: a flat sequence, a numpy array (1-d, a
    number each, or 2-d, an array of numbers per row) or another
    ``_Ragged``.  ``lengths`` is a list or a 1-d int array.
    """

    members: object
    lengths: object


@dataclass(frozen=True)
class _Table:
    """A list of ``rows`` objects given as named columns, one per key.

    Each column is a flat sequence or numpy array of ``rows`` values (see
    ``_Ragged``) or a ``_Ragged`` of ``rows`` arrays.  A report holds one
    where it holds a list of objects, so that a long listing needs no dict,
    tuple or list per row.
    """

    columns: dict[str, object]
    rows: int


@dataclass(frozen=True)
class _Array:
    """A list of numbers held as a 1-d numpy array, where a report holds a list.

    A bare ``ndarray`` is no JSON value, as for ``json.dumps``.
    """

    values: np.ndarray


#: Numeric tables of at least this many rows are laid out by :mod:`._floattext`.  Its fixed cost
#: of a few hundred microseconds a call outweighs the per-row joins below it.
_BULK = 512
#: The float ``_Array`` values of a report are written by :mod:`._floattext` in one pass when
#: they hold at least this many values between them.  For the two arrays of a ``simulate``
#: report the pass (about 440 µs plus 0.25 µs a value) overtakes ``float.__repr__`` (about
#: 60 µs plus 1.1 µs a value) between 384 and 448 values, on a 2-core x86-64 VM.
_BULK_ARRAYS = 384
#: The repr of each non-finite float and its JSON spelling.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _to_json(value, newline: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    ``newline`` is the line break plus the indentation of ``value``'s own
    nesting level.  A report, a dict whose values include a ``_Table`` or an
    ``_Array``, is written key by key, with str keys: each table by
    :func:`_json_table_text`, the arrays together by :func:`_write_arrays`,
    and every other value by :func:`_json_plain`.  Any other value is
    :func:`_json_plain`'s.  A ``_Table`` or ``_Array`` below a report's top
    level is no JSON value, as for ``json.dumps``.
    """
    if type(value) is not dict or {_Table, _Array}.isdisjoint(map(type, value.values())):
        return _json_plain(value, newline)
    inner = newline + "  "
    texts = _write_arrays({key: item.values for key, item in value.items() if type(item) is _Array}, inner)
    for key, item in value.items():
        if type(item) is not _Array:
            texts[key] = _json_table_text(item, inner) if type(item) is _Table else _json_plain(item, inner)
    keys = sorted(texts)
    members = map("{}: {}".format, map(encode_basestring_ascii, keys), map(texts.get, keys))
    return "{" + inner + ("," + inner).join(members) + newline + "}"


def _json_plain(value, newline: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at the nesting level of ``newline``.

    An exact ``float``, ``int``, ``str``, ``bool`` or None skips the encoder.
    The re-indent is exact, as JSON text holds no raw line break.
    """
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _write_arrays(arrays: dict[str, np.ndarray], newline: str) -> dict[str, str]:
    """The JSON text of each of a report's ``_Array`` values, by key.

    If its finite float64 arrays hold ``_BULK_ARRAYS`` values or more
    between them, :func:`_floattext.join_each` writes them all in one pass
    over their concatenation; every other array is written as its list.
    """
    bulk = {key: array for key, array in arrays.items()
            if array.dtype == np.float64 and array.size and np.isfinite(array).all()}
    if sum(array.size for array in bulk.values()) < _BULK_ARRAYS:
        bulk = {}
    texts = {key: _json_ragged(array, [array.size], newline)[0]
             for key, array in arrays.items() if key not in bulk}
    if bulk:
        # Imported here, so that a command that writes no long array does not load it.
        from . import _floattext

        inner = newline + "  "
        bodies = _floattext.join_each(list(bulk.values()), "," + inner)
        texts.update(zip(bulk, ("[" + inner + body + newline + "]" for body in bodies)))
    return texts


def _json_table_text(table: _Table, newline: str) -> str:
    """The JSON text of a table as one array: :func:`_bulk_table_text`'s if
    the table qualifies, else the texts of its objects joined."""
    text = _bulk_table_text(table, newline)
    if text is not None:
        return text
    inner = newline + "  "
    objects = _json_table(table, inner)
    return "[" + inner + ("," + inner).join(objects) + newline + "]" if objects else "[]"


def _json_table(table: _Table, newline: str) -> list[str]:
    """The JSON text of each object of a table, one column per key."""
    names = sorted(table.columns)
    if not names:
        return ["{}"] * table.rows
    inner = newline + "  "
    keys = [encode_basestring_ascii(name) + ": " for name in names]
    literals = ["{" + inner + keys[0], *["," + inner + key for key in keys[1:]], newline + "}"]
    return _json_rows(literals, [_json_column(table.columns[name], inner) for name in names])


def _json_column(values, newline: str) -> list[str]:
    """The JSON text of each value of a table column, sibling values at one nesting level.

    A ``_Ragged`` column is written by :func:`_json_ragged`, and so is a 2-d
    array, as the column of its rows.  A column of only ints, only finite
    floats or only strs is written with one ``map``, and any other value by
    value by :func:`_json_plain`.
    """
    if type(values) is _Ragged:
        return _json_ragged(values.members, values.lengths, newline)
    if type(values) is np.ndarray:
        if values.ndim == 2:
            return _json_ragged(values.ravel(), [values.shape[1]] * values.shape[0], newline)
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    # A finite sum means finite terms: a NaN or infinite term makes the sum NaN or infinite.
    # The converse fails, as finite terms can overflow ([1e308, 1e308]); those go value by value.
    if kinds == {float} and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    return [_json_plain(value, newline) for value in values]


def _json_ragged(members, lengths, newline: str) -> list[str]:
    """The JSON text of each array of a ragged column: array ``i`` holds the next ``lengths[i]`` members."""
    inner = newline + "  "
    separator = "," + inner
    if type(lengths) is np.ndarray:
        lengths = lengths.tolist()
    texts = _json_column(members, inner)
    width = lengths[0] if lengths else 0
    if lengths.count(width) == len(lengths) and width <= len(lengths):
        # Many short arrays of one length: member ``i`` of every array is ``texts[i::width]``.
        if not width:
            return ["[]"] * len(lengths)
        literals = ["[" + inner, *[separator] * (width - 1), newline + "]"]
        return _json_rows(literals, [islice(texts, i, None, width) for i in range(width)])
    bodies = map(separator.join, map(islice, repeat(iter(texts)), lengths))
    arrays = _json_rows(["[" + inner, newline + "]"], [bodies])
    if 0 in lengths:
        arrays = [text if length else "[]" for text, length in zip(arrays, lengths)]
    return arrays


def _json_rows(literals: list[str], columns) -> list[str]:
    """``literals[0] + columns[0][j] + literals[1] + ... + literals[-1]`` for each row ``j``."""
    pieces = [repeat(literals[0])]
    for column, literal in zip(columns, literals[1:]):
        pieces += (column, repeat(literal))
    return list(map("".join, zip(*pieces)))


def _bulk_table_text(table: _Table, newline: str) -> str | None:
    """The JSON text of a table as one array, laid out by :func:`_floattext.layout`.

    None unless the table has at least ``_BULK`` rows and every column is a
    numeric array (see :func:`_numeric`) or a ``_Ragged`` over one, at most
    one column a ``_Ragged`` and none of its arrays empty.  The layout has a
    text row per member of the ragged column, or per object without one.
    The member's own text is on every row.  The keys before the ragged
    column open the object on its first member's row, the keys after it
    close the object on its last member's row, and a member that is not its
    array's last is followed by a separator.
    """
    if table.rows < _BULK or not table.columns:
        return None
    names = sorted(table.columns)
    ragged = [name for name in names if type(table.columns[name]) is _Ragged]
    arrays = [table.columns[name].members if name in ragged else table.columns[name] for name in names]
    if len(ragged) > 1 or not all(map(_numeric, arrays)):
        return None
    lengths = np.asarray(table.columns[ragged[0]].lengths) if ragged else np.ones(table.rows, np.int64)
    if not (lengths > 0).all():
        return None
    last = np.cumsum(lengths) - 1
    first = last - (lengths - 1)
    inside = np.ones(last[-1] + 1, bool)
    inside[last] = False
    inside = np.flatnonzero(inside)
    inner = newline + "  "
    key_newline = inner + "  "
    rows = first
    segments = [("[" + inner, first[:1]), ("{" + key_newline, rows)]
    for i, (name, array) in enumerate(zip(names, arrays)):
        segments.append((("," + key_newline if i else "") + encode_basestring_ascii(name) + ": ", rows))
        if name in ragged:
            segments.append(("[" + key_newline + "  ", first))
            segments += _number_segments(array, key_newline + "  ", None)
            segments += [("," + key_newline + "  ", inside), (key_newline + "]", last)]
            rows = last
        else:
            segments += _number_segments(array, key_newline, rows)
    segments += [(inner + "}", rows), ("," + inner, last[:-1]), (newline + "]", last[-1:])]
    from . import _floattext

    return _floattext.layout(int(last[-1]) + 1, segments)


def _numeric(array) -> bool:
    """Whether ``array`` is an int64 or finite float64 ndarray, 1-d or 2-d with at least one column."""
    return (type(array) is np.ndarray and array.dtype in (np.int64, np.float64)
            and (array.ndim == 1 or array.ndim == 2 and array.shape[1] > 0)
            and (array.dtype == np.int64 or bool(np.isfinite(array).all())))


def _number_segments(array: np.ndarray, newline: str, rows) -> list:
    """The :func:`_floattext.layout` segments of a 1-d array's numbers, or of a 2-d array's arrays."""
    if array.ndim == 1:
        return [(array, rows)]
    inner = newline + "  "
    segments = [("[" + inner, rows)]
    for column in array.T:
        segments += [(column, rows), ("," + inner, rows)]
    segments[-1] = (newline + "]", rows)
    return segments


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    command = report["command"]
    if command == "analyze":
        columns = ["init", "pdet", "pdet_fraction", "orbit_rank", "upper_bound",
                   "upper_bound_fraction", "saturated", "bright_dim", "dark_dim"]
        writer.writerow(columns)
        writer.writerows(zip(*map(report["results"].columns.get, columns)))
    elif command == "simulate":
        writer.writerow(["n", "first_detection_probability", "partial_sum"])
        columns = report["first_detection"].values.tolist(), report["partial_sums"].values.tolist()
        writer.writerows(zip(range(1, len(columns[0]) + 1), *columns))
    elif command == "quotient":
        writer.writerow(["class_id", "members", "multiplicity"])
        for cls in report["classes"]:
            writer.writerow([cls["id"], " ".join(map(str, cls["members"])), cls["multiplicity"]])
    elif command == "resonances":
        writer.writerow(["tau", "level_pairs"])
        table = report["resonances"]
        writer.writerows(zip(table.columns["tau"].tolist(), _joined_pairs(table, "{}-{}x{}", ";")))
    elif command == "spectrum":
        writer.writerow(["sector", "phase", "degeneracy", "energies"])
        sectors = report["sectors"].columns
        energies = (" ".join(map(str, energies)) for energies in _ragged_lists(sectors["energies"]))
        writer.writerows(zip(count(), sectors["phase"].tolist(), sectors["degeneracy"].tolist(), energies))
    else:  # pragma: no cover - parser restricts commands
        raise ConfigError(f"no CSV layout for command {command!r}")
    return buf.getvalue()


def _ragged_lists(column: _Ragged):
    """Each array of a ragged column of numbers, as a list."""
    return map(list, map(islice, repeat(iter(column.members.tolist())), column.lengths.tolist()))


def _joined_pairs(table: _Table, layout: str, separator: str):
    """Each row's level pairs, each ``(l, l', k)`` put in ``layout``, joined by ``separator``."""
    pairs = table.columns["pairs"]
    texts = starmap(layout.format, pairs.members.tolist())
    return map(separator.join, map(islice, repeat(texts), pairs.lengths.tolist()))


def _to_text(report: dict) -> str:
    lines = [f"strobewalk {report['command']}  graph={report['graph']['source']} "
             f"({report['graph']['nodes']} nodes)"]
    lines += [f"warning: {warning}" for warning in report["warnings"]]
    command = report["command"]
    if command == "analyze":
        lines.append(
            f"detect={report['detect']}  tau={report['tau']}  "
            f"group order={report['group_order']}  stabilizer order={report['stabilizer_order']}  "
            f"saturated={report['saturated']}"
        )
        lines.append(f"{'init':>8}  {'pdet':>12}  {'bound':>12}  {'rank':>4}  bright/dark")
        names = ("init", "pdet", "pdet_fraction", "upper_bound", "upper_bound_fraction", "orbit_rank",
                 "bright_dim", "dark_dim")
        for init, pdet, pdet_fraction, bound, bound_fraction, rank, bright, dark in zip(
                *map(report["results"].columns.get, names)):
            pdet_note = f" ({pdet_fraction})" if pdet_fraction else ""
            bound_note = f" ({bound_fraction})" if bound_fraction else ""
            lines.append(f"{init:>8}  {pdet:>12.9f}{pdet_note}  {bound:>12.9f}{bound_note}  "
                         f"{rank:>4}  {bright}/{dark}")
    elif command == "simulate":
        series = report["series"]
        lines.append(
            f"detect={report['detect']}  init={report['init']}  tau={report['tau']}"
        )
        lines.append(
            f"series estimate={series['estimate']:.9f} after n={series['n_used']} "
            f"(converged={series['converged']})  spectral={report['spectral_pdet']:.9f}"
        )
        attempts = report["first_detection"].values.size
        first = report["first_detection"].values[:20].tolist()
        for n, (f, s) in enumerate(zip(first, report["partial_sums"].values[:20].tolist()), start=1):
            lines.append(f"  n={n:>4}  F={f:.3e}  sum={s:.9f}")
        if attempts > len(first):
            lines.append(f"  ... {attempts - len(first)} more attempts")
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
        table = report["resonances"]
        pairs = _joined_pairs(table, "levels {}&{} (k={})", ", ")
        lines += map("  tau_c = {:.12g}  from {}".format, table.columns["tau"].tolist(), pairs)
        if not table.rows:
            lines.append("  none")
    elif command == "spectrum":
        lines.append(f"eigenvalues: {report['eigenvalues']}")
        lines.append(f"tau={report['tau']}")
        sectors = report["sectors"].columns
        lines += map("  sector {}: phase={:.12g} degeneracy={} energies={}".format, count(),
                     sectors["phase"].tolist(), sectors["degeneracy"].tolist(),
                     _ragged_lists(sectors["energies"]))
    return "\n".join(lines) + "\n"


class _Query:
    """The inputs the commands share, each computed at most once.

    ``tols``, the command's own ``--tol`` keys (none without the flag), the
    graph and the Hamiltonian come first, for every command; the rest is
    computed on first use, in the order the command asks.
    """

    def __init__(self, args):
        self.args = args
        #: Files that go next to the report, path to bytes, written with it.
        self.sidecars: dict[str, bytes] = {}
        self.tols = _parse_tolerances(args.tol, args.tol_keys) if args.tol_keys else {}
        self.graph = _load_graph_source(args.graph)
        # Every command diagonalizes H, so a graph above the cap is refused before H is built.
        spectral._check_dim(self.graph.node_count)
        self.h = hamiltonian(self.graph, 1.0)

    @cached_property
    def tau(self) -> float:
        return _parse_tau(self.args.tau)

    @cached_property
    def eigensystem(self):
        return diagonalize(self.h)

    @cached_property
    def sectors(self):
        return fold_sectors(self.eigensystem, self.tau, phase_tol=self.tols["phase"])

    @cached_property
    def detect(self) -> np.ndarray:
        return _parse_state(self.args.detect, self.graph.node_count, "detect")

    @cached_property
    def group(self):
        # A localized detector goes first in the search's base, so ``stab`` needs no search of its own.
        return automorphisms(self.graph, base_point=localized_node(self.detect))

    @cached_property
    def stab(self):
        return stabilizer(self.group, self.detect)

    @cached_property
    def projection(self) -> _DetectorProjection:
        return _DetectorProjection(self.sectors, self.detect)

    def dark_warnings(self) -> list[str]:
        weight = self.projection.near_dark(self.tols["dark"])
        if weight is None:
            return []
        return [f"a sector dropped as dark has detector weight {weight:.3e}, above the square of "
                f"the dark tolerance {self.tols['dark']:g}: it may be weakly bright; a smaller "
                "--tol dark= keeps it"]


def cmd_analyze(q: _Query) -> dict:
    args, tau = q.args, q.tau
    warnings = list(q.sectors.warnings)
    resonant = is_resonant(q.sectors)
    if resonant:
        warnings.append(
            f"tau={tau} is a resonant detection period: sectors merge and the "
            "symmetry analysis relies on the folded sectors"
        )
    bright_dim = q.projection.bright(q.tols["dark"]).size
    symmetric_dark_dim = q.stab.symmetric_dim - bright_dim
    saturated = symmetric_dark_dim == 0

    n = q.graph.node_count
    if args.init == "all":
        labels, states = list(map(str, range(n))), None
        # Node r's orbit rank is the size of its orbit, and its bound <r|P|r> is P[r, r].
        ranks = q.stab._orbit_sizes.tolist()
        bounds = symmetry_projector(q.stab).diagonal().real.clip(0.0, 1.0).tolist()
    else:
        psi_in = _parse_state(args.init, n, "init")
        labels, states = [args.init], psi_in[:, None]
        ranks = [orbit_rank(q.stab, psi_in, rank_tol=q.tols["rank"])]
        bounds = [upper_bound(q.stab, psi_in)]
    warnings += q.dark_warnings()

    cols = q.projection.pdet_columns(states, dark_tol=q.tols["dark"])
    rows = len(labels)
    fractions = _fractions_of(cols.pdet + bounds)
    excluded = list(cols.excluded_sectors)
    results = _Table({
        "init": labels,
        "pdet": cols.pdet,
        "pdet_fraction": fractions[:rows],
        "orbit_rank": ranks,
        "upper_bound": bounds,
        "upper_bound_fraction": fractions[rows:],
        "saturated": [saturated] * rows,
        "bright_dim": [bright_dim] * rows,
        "dark_dim": [cols.dark_dim] * rows,
        "excluded_sectors": _Ragged(excluded * rows, [len(excluded)] * rows),
    }, rows)
    return {
        "tau": tau,
        "tau_resonant": resonant,
        "detect": args.detect,
        "group_order": q.group.order,
        "stabilizer_order": q.stab.order,
        "saturated": saturated,
        "symmetric_dark_dim": symmetric_dark_dim,
        "results": results,
        "warnings": warnings,
    }


def cmd_simulate(q: _Query) -> dict:
    args, tau, psi_d = q.args, q.tau, q.detect
    if args.init == "all":
        raise ConfigError("simulate requires a single --init state")
    psi_in = _parse_state(args.init, q.graph.node_count, "init")
    setup = DetectionSetup(hamiltonian=q.h, detect_state=psi_d, initial_state=psi_in, tau=tau)
    q.eigensystem = setup.eigensystem  # the setup's diagonalization serves the whole query
    warnings = list(q.sectors.warnings)
    resonant = is_resonant(q.sectors)
    if resonant:
        warnings.append(
            f"tau={tau} is a resonant detection period; the series may not converge"
        )
    # The series stops on the bright sectors that spectral_pdet sums.
    series = _series(setup, q.projection.bright_basis(q.tols["dark"]), q.tols["series-rel"],
                     int(q.tols["series-cap"]))
    exact = q.projection.pdet_columns(psi_in[:, None], dark_tol=q.tols["dark"])
    warnings += q.dark_warnings()
    if not series.converged:
        warnings.append(f"series did not converge within n={series.n_used}")
    return {
        "tau": tau,
        "tau_resonant": resonant,
        "detect": args.detect,
        "init": args.init,
        "series": {
            "estimate": series.estimate,
            "n_used": series.n_used,
            "converged": series.converged,
        },
        "spectral_pdet": exact.pdet[0],
        "first_detection": _Array(series.probabilities),
        "partial_sums": _Array(np.cumsum(series.probabilities)),
        "warnings": warnings,
    }


def cmd_quotient(q: _Query) -> dict:
    qs = symmetrize(q.h, q.stab, q.detect)
    graph = quotient_graph(qs)
    if q.args.out:
        q.sidecars[q.args.out + ".graph.json"] = save_graph(graph)
    return {
        "detect": q.args.detect,
        "original_dim": qs.original_dim,
        "reduced_dim": qs.reduced_dim,
        "detect_class": qs.detect_class,
        "classes": [
            {"id": c, "members": list(members), "multiplicity": len(members)}
            for c, members in enumerate(qs.classes)
        ],
        "symmetric_spectrum": qs.eigensystem.eigenvalues.tolist(),
        "quotient_graph": graph_document(graph),
    }


def cmd_resonances(q: _Query) -> dict:
    lo, hi = _parse_tau_range(q.args.tau)
    cols = resonant_periods(q.eigensystem, hi)
    cut = int(np.searchsorted(cols.taus, lo, side="right"))
    starts = cols.starts[cut:]
    first = int(starts[0]) if starts.size else cols.k.size
    lengths = np.diff(starts, append=cols.k.size)
    triples = np.stack((cols.l0[first:], cols.l1[first:], cols.k[first:]), axis=1)
    return {
        "range": [lo, hi],
        "resonances": _Table({"tau": cols.taus[cut:], "pairs": _Ragged(triples, lengths)}, lengths.size),
    }


def cmd_spectrum(q: _Query) -> dict:
    sd = q.sectors
    degeneracies = sd.degeneracies
    sectors = {"phase": sd.phases, "degeneracy": degeneracies, "energies": _Ragged(sd.energies, degeneracies)}
    return {
        "tau": q.tau,
        "eigenvalues": q.eigensystem.eigenvalues.tolist(),
        "sectors": _Table(sectors, degeneracies.size),
        "warnings": list(sd.warnings),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strobewalk",
        description="Total detection probability of stroboscopically monitored quantum walks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, tols, detect=False, init=False, tau_default="1.0", tau_help="detection period"):
        p.set_defaults(run=run, tol_keys=tols)
        p.add_argument("--graph", required=True, help="generator spec (e.g. ring:6) or graph JSON path")
        if detect:
            p.add_argument("--detect", required=True, help="detection node id or state file path")
        if init:
            p.add_argument("--init", required=True, help="initial node id, state file path, or 'all'")
        if tau_default is not None:
            p.add_argument("--tau", default=tau_default, help=f"{tau_help} (default %(default)s)")
        if tols:
            p.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                           help=f"override a tolerance; keys: {', '.join(tols)}")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    add_common(sub.add_parser("analyze", help="detection probability, bound and saturation"),
               cmd_analyze, ("phase", "dark", "rank"), detect=True, init=True)
    add_common(sub.add_parser("simulate", help="direct protocol summation next to the spectral value"),
               cmd_simulate, ("phase", "dark", "series-rel", "series-cap"), detect=True, init=True)
    add_common(sub.add_parser("quotient", help="symmetrized (quotient) system for a detection node"),
               cmd_quotient, (), detect=True, tau_default=None)
    add_common(sub.add_parser("resonances", help="resonant detection periods up to a bound"),
               cmd_resonances, (), tau_default="6.2831853",
               tau_help="largest period listed, or scan:min:max for the periods in (min, max]")
    add_common(sub.add_parser("spectrum", help="eigenvalues and quasienergy sectors"), cmd_spectrum, ("phase",))
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process.

    Parsing leaves it unchanged: each call fills a fresh namespace, and
    ``append`` copies the ``--tol`` default before adding to it.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        q = _Query(args)
        graph = {"source": args.graph, "nodes": q.graph.node_count, "edges": q.graph.edge_count}
        report = {"command": args.command, "graph": graph, "tau": None, "warnings": [],
                  **args.run(q)}
        _emit(report, args.format, args.out, q.sidecars)
    except (ConfigError, GraphSpecError, GraphFormatError, GraphInvariantError,
            StateError, NonLocalizedDetectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except StrobewalkError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
