"""JSON config documents: strict parsing (unknown keys rejected) and
canonical dumping.  The document schema mirrors SystemConfig:

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

import hashlib
import json
from pathlib import Path

from .errors import ParseError
from .model import CavityMode, CouplingEdge, MechanicalMode, SystemConfig


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _complex_number(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return complex(value[0], value[1])
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


def config_from_dict(doc: dict) -> SystemConfig:
    _check_keys(doc, {"cavities", "mechanicals", "edges"},
                {"parameter_mode", "topology"}, "config")
    cavities = []
    if not isinstance(doc["cavities"], list):
        raise ParseError("cavities: expected a list")
    for i, item in enumerate(doc["cavities"]):
        where = f"cavities[{i}]"
        _check_keys(item, {"detuning", "decay"}, {"drive_amplitude"}, where)
        cavities.append(CavityMode(
            detuning=_number(item["detuning"], where + ".detuning"),
            decay=_number(item["decay"], where + ".decay"),
            drive_amplitude=_complex_number(item.get("drive_amplitude", 0.0),
                                            where + ".drive_amplitude"),
        ))
    mechanicals = []
    if not isinstance(doc["mechanicals"], list):
        raise ParseError("mechanicals: expected a list")
    for i, item in enumerate(doc["mechanicals"]):
        where = f"mechanicals[{i}]"
        _check_keys(item, {"frequency", "damping", "thermal_occupation"}, set(), where)
        mechanicals.append(MechanicalMode(
            frequency=_number(item["frequency"], where + ".frequency"),
            damping=_number(item["damping"], where + ".damping"),
            thermal_occupation=_number(item["thermal_occupation"],
                                       where + ".thermal_occupation"),
        ))
    edges = []
    if not isinstance(doc["edges"], list):
        raise ParseError("edges: expected a list")
    for i, item in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        _check_keys(item, {"kind", "endpoints", "strength"}, set(), where)
        endpoints = item["endpoints"]
        if (not isinstance(endpoints, list) or len(endpoints) != 2
                or not all(isinstance(e, str) for e in endpoints)):
            raise ParseError(f"{where}.endpoints: expected a pair of mode ids")
        edges.append(CouplingEdge(
            kind=item["kind"],
            endpoints=(endpoints[0], endpoints[1]),
            strength=_complex_number(item["strength"], where + ".strength"),
        ))
    return SystemConfig(
        cavities=tuple(cavities),
        mechanicals=tuple(mechanicals),
        edges=tuple(edges),
        parameter_mode=doc.get("parameter_mode", "effective"),
        topology=doc.get("topology", "generic"),
    )


def _encode_complex(value: complex):
    value = complex(value)
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


def config_to_dict(config: SystemConfig) -> dict:
    doc = {
        "parameter_mode": config.parameter_mode,
        "topology": config.topology,
        "cavities": [],
        "mechanicals": [],
        "edges": [],
    }
    for cav in config.cavities:
        item = {"detuning": cav.detuning, "decay": cav.decay}
        if complex(cav.drive_amplitude) != 0:
            item["drive_amplitude"] = _encode_complex(cav.drive_amplitude)
        doc["cavities"].append(item)
    for mech in config.mechanicals:
        doc["mechanicals"].append({
            "frequency": mech.frequency,
            "damping": mech.damping,
            "thermal_occupation": mech.thermal_occupation,
        })
    for edge in config.edges:
        doc["edges"].append({
            "kind": edge.kind,
            "endpoints": list(edge.endpoints),
            "strength": _encode_complex(edge.strength),
        })
    return doc


def dump_config(config: SystemConfig) -> str:
    """Canonical JSON text for a config (stable key order, full precision)."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def config_hash(config: SystemConfig) -> str:
    return hashlib.sha256(dump_config(config).encode()).hexdigest()[:16]


def parse_config(path: str | Path) -> SystemConfig:
    """Read and schema-check a config document.  It is validated once, by
    the compile_config of the run it enters."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)
