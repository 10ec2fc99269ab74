"""JSON config documents, the one owner of their schema: the sections,
keys and numeric fields, the edge kinds, parameter modes and topology tags,
and the rule of each field.  Strict parsing (unknown keys rejected)
straight into the compiled Model, a sweep path resolved to its Model slot,
and dump_config, the one writer of a Model's canonical text, from its
arrays (config_to_dict parses that text back).  The schema:

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


def _where(section: str, index: int | None = None, name: str | None = None) -> str:
    """How schema messages name a section, its item ``index``, or a field
    of that item; formatted only for a refusal."""
    where = section if index is None else f"{section}[{index}]"
    return where if name is None else f"{where}.{name}"


def _clip(text: str) -> str:
    """Document input as a refusal message echoes it (its repr, or an edge
    kind as is), cut to 60 characters and '...', so that a huge value gives
    a short message; text that fits is kept whole."""
    return text if len(text) <= 60 else text[:60] + "..."


def _number(value, section: str, index: int, name: str) -> float:
    """A JSON number as a float, a zero of either sign as +0.0, so no signed
    zero reaches the model or its hash; an integer beyond float range reads
    as the infinity of its sign, as the literal 1e400 does."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{_where(section, index, name)}: expected a number,"
                         f" got {_clip(repr(value))}")
    try:
        return float(value) + 0.0
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _complex_number(value, section: str, index: int, name: str) -> complex:
    """A number or an [re, im] pair of numbers as a complex, each part read
    as _number reads it."""
    try:
        if isinstance(value, list) and len(value) == 2:
            return complex(_number(value[0], section, index, name),
                           _number(value[1], section, index, name))
        return complex(_number(value, section, index, name))
    except ParseError:
        raise ParseError(f"{_where(section, index, name)}: expected a number or [re, im] pair,"
                         f" got {_clip(repr(value))}") from None


def _check_keys(obj, required: set[str], allowed: set[str], section: str,
                index: int | None = None) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{_where(section, index)}: expected an object")
    keys = obj.keys()
    if not required <= keys <= allowed:
        unknown = keys - allowed
        if unknown:
            raise ParseError(f"{_where(section, index)}: unknown key(s)"
                             f" {_clip(repr(sorted(unknown)))}")
        raise ParseError(f"{_where(section, index)}: missing required field(s)"
                         f" {sorted(required - keys)}")


def _field_fault(name: str, value, parameter_mode: str) -> str | None:
    """The rule of one numeric field that ``value`` breaks, or None, for
    config_from_dict and axis_slot: finite, within its sign bound, and a
    drive nonzero only in physical mode, the one mode whose amplitude solve
    reads it."""
    if not cmath.isfinite(value):
        return f"{name} must be finite"
    bound = _BOUNDS.get(name)
    if bound == "> 0" and value <= 0 or bound == ">= 0" and value < 0:
        return f"{name} must be {bound}"
    if name == "drive_amplitude" and value and parameter_mode != "physical":
        return f"drive_amplitude must be 0 in {parameter_mode} mode"
    return None


def _owner(section: str, index: int, edges) -> str:
    """How rule messages name item ``index`` of a config section; ``edges``
    holds each edge's kind and endpoint ids.  Formatted only for a
    refusal."""
    if section == "cavities":
        return f"cavity c{index}"
    if section == "mechanicals":
        return f"mechanical m{index}"
    kind, endpoints = edges[index]
    return f"{_clip(kind)} edge {_clip(repr(endpoints))}"


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
    for value in values:
        fault = _field_fault(name, value, model.parameter_mode)
        if fault:
            raise ConfigError(f"{_owner(section, index, edge_ids(model))}: {fault}")
    return _SLOTS[section][name], index


def config_from_dict(doc: dict) -> Model:
    """The Model of a config document (see Model for the slot layout), in
    three passes over the whole document: the schema (ParseError); the rules
    (ConfigError) of the mode lists, parameter_mode, topology, every numeric
    field, then every edge's kind, mode ids, endpoints and uniqueness; and
    the arrays, each mode id resolved to its canonical index.  Presets and
    files both enter here, and nothing downstream re-checks."""
    sections = {"cavities", "mechanicals", "edges"}
    _check_keys(doc, sections, sections | {"parameter_mode", "topology"}, "config")
    values: dict[str, list] = {slot: [] for fields in _SLOTS.values() for slot in fields.values()}
    edges = []  # the kind and endpoint ids of each edge
    for section, fields in _SLOTS.items():
        items = doc[section]
        if not isinstance(items, list):
            raise ParseError(f"{section}: expected a list")
        required, optional = _KEYS[section]
        allowed = required | optional
        parsers = [(name, values[slot], _complex_number if slot in _COMPLEX_SLOTS else _number)
                   for name, slot in fields.items()]
        for i, item in enumerate(items):
            _check_keys(item, required, allowed, section, i)
            if section == "edges":
                kind, endpoints = item["kind"], item["endpoints"]
                if not isinstance(kind, str):
                    raise ParseError(f"{_where(section, i, 'kind')}: expected a string,"
                                     f" got {_clip(repr(kind))}")
                if (not isinstance(endpoints, list) or len(endpoints) != 2
                        or not isinstance(endpoints[0], str) or not isinstance(endpoints[1], str)):
                    raise ParseError(f"{_where(section, i, 'endpoints')}: expected a pair"
                                     " of mode ids")
                edges.append((kind, tuple(endpoints)))
            for name, column, parse in parsers:
                column.append(parse(item.get(name, 0.0), section, i, name))

    parameter_mode = doc.get("parameter_mode", "effective")
    topology = doc.get("topology", "generic")
    nc, nm = len(doc["cavities"]), len(doc["mechanicals"])
    if not nc or not nm:
        raise ConfigError("empty mode list: need at least one cavity and one mechanical mode")
    if parameter_mode not in PARAMETER_MODES:
        raise ConfigError(f"unknown parameter_mode {_clip(repr(parameter_mode))}")
    if topology not in TOPOLOGY_TAGS:
        raise ConfigError(f"unknown topology {_clip(repr(topology))}")
    for section, fields in _SLOTS.items():
        for index, row in enumerate(zip(*(values[slot] for slot in fields.values()))):
            for name, value in zip(fields, row):
                fault = _field_fault(name, value, parameter_mode)
                if fault:
                    raise ConfigError(f"{_owner(section, index, edges)}: {fault}")
    # each canonical mode id that names a mode -> its canonical index; any
    # other string is malformed or dangling
    modes = {f"c{c}": c for c in range(nc)} | {f"m{l}": nc + l for l in range(nm)}
    seen: set[tuple[int, int]] = set()
    ends = []
    for kind, endpoints in edges:
        if kind not in EDGE_KINDS:
            raise ConfigError(f"unknown edge kind {_clip(repr(kind))}")
        for mode_id in endpoints:
            if mode_id not in modes and not _MODE_ID.fullmatch(mode_id):
                raise ConfigError(f"malformed mode id {_clip(repr(mode_id))}")
        a, b = endpoints
        if (a[0], b[0]) != EDGE_KINDS[kind]:
            raise ConfigError(f"kind mismatch: {kind} edge cannot join {_clip(repr(a))}"
                              f" and {_clip(repr(b))}")
        if a == b:
            raise ConfigError(f"self-loop on {_clip(repr(a))}")
        for mode_id in endpoints:
            if mode_id not in modes:
                raise ConfigError(f"dangling edge endpoint {_clip(repr(mode_id))}")
        i, j = modes[a], modes[b]
        key = (i, j) if i < j else (j, i)  # an edge's kind follows from its endpoints
        if key in seen:
            raise ConfigError(f"duplicate {kind} edge between {_clip(repr(endpoints))}")
        seen.add(key)
        ends.append((i, j))

    ends_array = np.array(ends, dtype=np.intp).reshape(-1, 2)
    return Model(
        topology=topology, parameter_mode=parameter_mode,
        edge_i=ends_array[:, 0], edge_j=ends_array[:, 1],
        optomechanical=np.array([kind == "optomechanical" for kind, _ in edges], dtype=bool),
        **{slot: np.array(v, dtype=complex if slot in _COMPLEX_SLOTS else float)
           for slot, v in values.items()},
    )


_encode = json.encoder.encode_basestring_ascii  # a string as json.dumps writes it


def _value_text(value) -> str:
    """A field's value as json writes it: a float, or a complex as its real
    part if its imaginary part is zero and as an [re, im] pair if not."""
    if isinstance(value, complex):
        if value.imag:
            return f"[\n        {value.real!r},\n        {value.imag!r}\n      ]"
        value = value.real
    return repr(value)


def _section_text(items: list[str]) -> str:
    """A section's list, each item given as the text of its fields."""
    if not items:
        return "[]"
    return "[\n    {\n      " + "\n    },\n    {\n      ".join(items) + "\n    }\n  ]"


def dump_config(model: Model) -> str:
    """The canonical JSON text of a model, written straight from its arrays
    and edge_ids with one template per item: json.dumps(doc, indent=2,
    sort_keys=True) and a newline, a zero drive left out.  json's C encoder
    takes no indent, and its Python one costs several times as much.  A
    float is written by its repr, as json writes a finite one: a model holds
    no other, as config_from_dict and axis_slot refuse them."""
    z = _value_text
    cavities = [f'"decay": {decay!r},\n      "detuning": {detuning!r}'
                + (f',\n      "drive_amplitude": {z(drive)}' if drive else "")
                for detuning, decay, drive
                in zip(model.detuning.tolist(), model.decay.tolist(), model.drive.tolist())]
    edges = [f'"endpoints": [\n        {_encode(a)},\n        {_encode(b)}\n      ],\n'
             f'      "kind": {_encode(kind)},\n      "strength": {z(strength)}'
             for (kind, (a, b)), strength in zip(edge_ids(model), model.strength.tolist())]
    mechanicals = [f'"damping": {damping!r},\n      "frequency": {frequency!r},\n'
                   f'      "thermal_occupation": {nbar!r}'
                   for frequency, damping, nbar
                   in zip(model.frequency.tolist(), model.damping.tolist(), model.nbar.tolist())]
    return (f'{{\n  "cavities": {_section_text(cavities)},\n'
            f'  "edges": {_section_text(edges)},\n'
            f'  "mechanicals": {_section_text(mechanicals)},\n'
            f'  "parameter_mode": {_encode(model.parameter_mode)},\n'
            f'  "topology": {_encode(model.topology)}\n}}\n')


def config_to_dict(model: Model) -> dict:
    """The document of dump_config's text, which config_from_dict takes back to the model."""
    return json.loads(dump_config(model))


def config_hash(model: Model) -> str:
    """The first 16 hex digits of the SHA-256 of dump_config's text: the
    head of the sha256sum of what preset --dump writes for the model."""
    return hashlib.sha256(dump_config(model).encode()).hexdigest()[:16]


def parse_config(path: str | Path) -> Model:
    """Read a config document and compile it with config_from_dict.  A file
    that cannot be read, is not JSON, holds an integer past int's digit
    limit or nests too deeply for json's decoder raises ParseError naming it."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:  # json's decoder recurses once per level of nesting
        raise ParseError(f"{path}: nested too deeply to parse") from exc
    return config_from_dict(doc)
