"""JSON config documents, the one owner of their schema: the sections,
keys and numeric fields, the edge kinds, parameter modes and topology tags,
and the rule of each field.  Strict parsing (unknown keys rejected)
straight into the compiled Model, the resolution of a sweep path to its
Model slot, and canonical dumping of a Model.  The schema:

{
  "parameter_mode": "effective",
  "topology": "n_type",
  "cavities": [{"detuning": 1.0, "decay": 0.1}, ...],
  "mechanicals": [{"frequency": 1.0, "damping": 1e-5,
                   "thermal_occupation": 1000.0}, ...],
  "edges": [{"kind": "optomechanical", "endpoints": ["c0", "m0"],
             "strength": 0.05}, ...]
}

Complex strengths/drives are encoded as [re, im]; real values as numbers.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .model import Model

# edge kind -> the mode kinds its two endpoints must have
EDGE_KINDS = {"optomechanical": ("c", "m"), "photon_hop": ("c", "c"), "phonon_hop": ("m", "m")}
PARAMETER_MODES = ("effective", "physical")
TOPOLOGY_TAGS = ("n_type", "network4", "chain", "generic")

# The one spelling of an index: no sign, no leading zero.
_INDEX = "0|[1-9][0-9]*"
_MODE_ID = re.compile(f"[cm]({_INDEX})")

# The numeric fields of each config section and the Model array each one is
# compiled into; a sweep axis path names one of them.
_SLOTS = {
    "cavities": {"detuning": "detuning", "decay": "decay", "drive_amplitude": "drive"},
    "mechanicals": {"frequency": "frequency", "damping": "damping",
                    "thermal_occupation": "nbar"},
    "edges": {"strength": "strength"},
}
_COMPLEX_SLOTS = ("drive", "strength")
_BOUNDS = {"decay": ">= 0", "frequency": "> 0", "damping": ">= 0", "thermal_occupation": ">= 0"}
# section -> the required and the optional keys of each of its items
_KEYS = {"cavities": ({"detuning", "decay"}, {"drive_amplitude"}),
         "mechanicals": ({"frequency", "damping", "thermal_occupation"}, set()),
         "edges": ({"kind", "endpoints", "strength"}, set())}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value) -> float:
    """A JSON number as a float; an integer beyond float range reads as the
    infinity of its sign, as the literal 1e400 does."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return _float(value)


def _complex_number(value, where: str) -> complex:
    if _is_number(value):
        return complex(_float(value))
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(_float(value[0]), _float(value[1]))
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _check_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{where}: missing required field(s) {sorted(missing)}")


def _split_mode_id(mode_id: str) -> tuple[str, int]:
    """Split "c<i>" / "m<j>" into kind and index.  Only the canonical
    spelling is accepted, so "m00" or "m+0" cannot alias "m0"."""
    if not _MODE_ID.fullmatch(mode_id):
        raise ConfigError(f"malformed mode id {mode_id!r}")
    return mode_id[0], int(mode_id[1:])


def _check_field(owner: str, name: str, value, parameter_mode: str) -> None:
    """The rule of one numeric field, for config_from_dict and axis_slot:
    finite, within its sign bound, and a drive nonzero only in physical
    mode, the one mode whose amplitude solve reads it."""
    if not cmath.isfinite(value):
        raise ConfigError(f"{owner}: {name} must be finite")
    bound = _BOUNDS.get(name)
    if bound == "> 0" and value <= 0 or bound == ">= 0" and value < 0:
        raise ConfigError(f"{owner}: {name} must be {bound}")
    if name == "drive_amplitude" and value and parameter_mode != "physical":
        raise ConfigError(f"{owner}: drive_amplitude must be 0 in {parameter_mode} mode")


def _owner(section: str, index: int, edges) -> str:
    """How messages name item ``index`` of a config section; ``edges``
    holds each edge's kind and endpoint ids."""
    if section == "cavities":
        return f"cavity c{index}"
    if section == "mechanicals":
        return f"mechanical m{index}"
    kind, endpoints = edges[index]
    return f"{kind} edge {endpoints}"


def edge_ids(model: Model) -> list[tuple[str, tuple[str, str]]]:
    """Each edge's kind and endpoint mode ids, which its canonical indices
    fix: an edge's kind follows from the kinds of its endpoints."""
    kinds = {ends: kind for kind, ends in EDGE_KINDS.items()}
    ids = ([f"c{c}" for c in range(model.n_cavities)]
           + [f"m{l}" for l in range(model.n_mechanicals)])
    return [(kinds[ids[i][0], ids[j][0]], (ids[i], ids[j]))
            for i, j in zip(model.edge_i.tolist(), model.edge_j.tolist())]


def axis_slot(model: Model, path: str, values) -> tuple[str, int]:
    """Resolve a path such as 'cavities.0.detuning' or 'edges.3.strength'
    to its (array name, index) slot in the model, and check each value
    against that field's rule.  Every rule concerns one field, so a point
    with these values written in is valid when the model and each value
    are.  The index must be spelled canonically, so that no two paths name
    one slot."""
    parts = path.split(".")
    if len(parts) != 3:
        raise ConfigError(f"bad parameter path {path!r} (want section.index.field)")
    section, idx_s, name = parts
    if section not in _SLOTS:
        raise ConfigError(f"bad parameter path {path!r}: unknown section {section!r}")
    size = len(getattr(model, next(iter(_SLOTS[section].values()))))  # the section's items
    if not re.fullmatch(_INDEX, idx_s) or int(idx_s) >= size:
        raise ConfigError(f"bad parameter path {path!r}: no element {idx_s}")
    index = int(idx_s)
    if name not in _SLOTS[section]:
        raise ConfigError(f"bad parameter path {path!r}: {name!r} is not a numeric field")
    owner = _owner(section, index, edge_ids(model))
    for value in values:
        _check_field(owner, name, value, model.parameter_mode)
    return _SLOTS[section][name], index


def config_from_dict(doc: dict) -> Model:
    """The Model of a config document (see Model for the slot layout), in
    three passes over the whole document: the schema (ParseError); the rules
    (ConfigError) of the mode lists, parameter_mode, topology, every numeric
    field, then every edge's kind, mode ids, endpoints and uniqueness; and
    the arrays, each mode id resolved to its canonical index.  Presets and
    files both enter here, and nothing downstream re-checks."""
    _check_keys(doc, {"cavities", "mechanicals", "edges"},
                {"parameter_mode", "topology"}, "config")
    values: dict[str, list] = {slot: [] for fields in _SLOTS.values() for slot in fields.values()}
    edges = []  # the kind and endpoint ids of each edge
    for section, fields in _SLOTS.items():
        if not isinstance(doc[section], list):
            raise ParseError(f"{section}: expected a list")
        for i, item in enumerate(doc[section]):
            where = f"{section}[{i}]"
            _check_keys(item, *_KEYS[section], where)
            if section == "edges":
                kind, endpoints = item["kind"], item["endpoints"]
                if not isinstance(kind, str):
                    raise ParseError(f"{where}.kind: expected a string, got {kind!r}")
                if (not isinstance(endpoints, list) or len(endpoints) != 2
                        or not all(isinstance(e, str) for e in endpoints)):
                    raise ParseError(f"{where}.endpoints: expected a pair of mode ids")
                edges.append((kind, tuple(endpoints)))
            for name, slot in fields.items():
                parse = _complex_number if slot in _COMPLEX_SLOTS else _number
                values[slot].append(parse(item.get(name, 0.0), f"{where}.{name}"))

    parameter_mode = doc.get("parameter_mode", "effective")
    topology = doc.get("topology", "generic")
    sizes = {"c": len(doc["cavities"]), "m": len(doc["mechanicals"])}
    if not sizes["c"] or not sizes["m"]:
        raise ConfigError("empty mode list: need at least one cavity and one mechanical mode")
    if parameter_mode not in PARAMETER_MODES:
        raise ConfigError(f"unknown parameter_mode {parameter_mode!r}")
    if topology not in TOPOLOGY_TAGS:
        raise ConfigError(f"unknown topology {topology!r}")
    for section, fields in _SLOTS.items():
        for index in range(len(doc[section])):
            owner = _owner(section, index, edges)
            for name, slot in fields.items():
                _check_field(owner, name, values[slot][index], parameter_mode)
    seen: set[tuple[str, frozenset[str]]] = set()
    ends = []
    for kind, endpoints in edges:
        if kind not in EDGE_KINDS:
            raise ConfigError(f"unknown edge kind {kind!r}")
        split = [_split_mode_id(mode_id) for mode_id in endpoints]
        if (split[0][0], split[1][0]) != EDGE_KINDS[kind]:
            raise ConfigError(f"kind mismatch: {kind} edge cannot join {endpoints[0]!r}"
                              f" and {endpoints[1]!r}")
        if endpoints[0] == endpoints[1]:
            raise ConfigError(f"self-loop on {endpoints[0]!r}")
        for mode_id, (mode_kind, index) in zip(endpoints, split):
            if index >= sizes[mode_kind]:
                raise ConfigError(f"dangling edge endpoint {mode_id!r}")
        key = (kind, frozenset(endpoints))
        if key in seen:
            raise ConfigError(f"duplicate {kind} edge between {endpoints}")
        seen.add(key)
        ends.append([index if mode_kind == "c" else sizes["c"] + index
                     for mode_kind, index in split])

    ends_array = np.array(ends, dtype=np.intp).reshape(-1, 2)
    return Model(
        topology=topology, parameter_mode=parameter_mode,
        edge_i=ends_array[:, 0], edge_j=ends_array[:, 1],
        optomechanical=np.array([kind == "optomechanical" for kind, _ in edges], dtype=bool),
        **{slot: np.array(v, dtype=complex if slot in _COMPLEX_SLOTS else float)
           for slot, v in values.items()},
    )


def _encode_complex(value: complex):
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


def config_to_dict(model: Model) -> dict:
    """The canonical document of a model, one item per slot index of each
    section: config_from_dict gives the model back.  An optional field at
    zero is left out, and each edge's kind and endpoints follow from its
    indices (edge_ids)."""
    doc = {"parameter_mode": model.parameter_mode, "topology": model.topology}
    for section, fields in _SLOTS.items():
        optional = _KEYS[section][1]
        columns = [[_encode_complex(v) for v in getattr(model, slot).tolist()]
                   if slot in _COMPLEX_SLOTS else getattr(model, slot).tolist()
                   for slot in fields.values()]
        doc[section] = [{name: value for name, value in zip(fields, row)
                         if value or name not in optional} for row in zip(*columns)]
    for item, (kind, endpoints) in zip(doc["edges"], edge_ids(model)):
        item["kind"], item["endpoints"] = kind, list(endpoints)
    return doc


def dump_config(model: Model) -> str:
    """Canonical JSON text for a model (stable key order, full precision)."""
    return json.dumps(config_to_dict(model), indent=2, sort_keys=True) + "\n"


def config_hash(model: Model) -> str:
    return hashlib.sha256(dump_config(model).encode()).hexdigest()[:16]


def parse_config(path: str | Path) -> Model:
    """Read a config document and compile it with config_from_dict."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)
