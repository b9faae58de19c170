"""JSON problem file schema: loading, validation and canonical dumping.

The document holds dimension, objective text, set atoms, the domain
window, optional constraints/ground set for the inequality-constrained
form, an optional known solution and tolerance overrides.  Unknown keys
are rejected.  Dumping is canonical (fixed key order, shortest
round-trip decimals), so load/dump round-trips byte-identically.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Dict, Optional, Tuple

from .config import DEFAULT_CONFIG, Config, _is_finite_real
from .core import ConstrainedProblem, Problem
from .errors import InputError, ParseError, ProblemFormatError
from .expr import parse, pretty
from .sets import (
    Atom,
    Ball,
    Box,
    ConvexSetDescriptor,
    Halfspace,
    LinearEquality,
    _kept,
    contains,
    sample_grid,
)

_TOP_KEYS = {
    "dimension",
    "objective",
    "feasible_set",
    "domain_window",
    "constraints",
    "ground_set",
    "known_solution",
    "config",
}
_CONFIG_KEYS = {f.name for f in dataclasses.fields(Config)}


def _real(value, name: str) -> float:
    if not _is_finite_real(value):
        raise ProblemFormatError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def _reals(value, name: str, dim: Optional[int] = None) -> Tuple[float, ...]:
    if not isinstance(value, list) or not all(_is_finite_real(v) for v in value):
        raise ProblemFormatError(f"{name} must be a list of finite reals")
    if dim is not None and len(value) != dim:
        raise ProblemFormatError(f"{name} must have length {dim}")
    return tuple(float(v) for v in value)


# atom type name -> atom class.  An atom's JSON fields are its class's
# dataclass fields, in order: a list of reals for a field annotated tuple,
# a real for one annotated float.
_ATOMS = {
    "box": Box,
    "halfspace": Halfspace,
    "ball": Ball,
    "linear_equality": LinearEquality,
}
_KINDS = {cls: kind for kind, cls in _ATOMS.items()}  # atom class -> type name


def _atom_from_json(obj: dict, dim: int) -> Atom:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProblemFormatError("each set atom must be a tagged object")
    kind = obj["type"]
    cls = _ATOMS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProblemFormatError(f"unknown atom type {kind!r}")
    fields = dataclasses.fields(cls)
    keys = set(obj) - {"type"}
    if keys != {f.name for f in fields}:
        raise ProblemFormatError(f"{kind} atom has wrong keys: {sorted(keys)}")
    return cls(*(
        _reals(obj[f.name], f"{kind}.{f.name}", dim) if f.type == "tuple"
        else _real(obj[f.name], f"{kind}.{f.name}")
        for f in fields
    ))


def _atom_to_json(atom: Atom) -> dict:
    doc = {"type": _KINDS[type(atom)]}
    for f in dataclasses.fields(atom):
        value = getattr(atom, f.name)
        doc[f.name] = list(value) if f.type == "tuple" else value
    return doc


def _window_from_json(obj, dim: int) -> Box:
    if not isinstance(obj, dict) or set(obj) != {"lo", "hi"}:
        raise ProblemFormatError("domain_window must be {lo: [...], hi: [...]}")
    return Box(_reals(obj["lo"], "window.lo", dim), _reals(obj["hi"], "window.hi", dim))


def config_from_json(obj: dict, base: Config = DEFAULT_CONFIG) -> Config:
    """base with the fields of a JSON config object replaced, each refused
    as Config refuses it.  The CLI passes its config flags here too."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("config must be an object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ProblemFormatError(f"unknown config keys: {sorted(unknown)}")
    try:  # key by key, in the object's order: the first bad key is the one named
        return functools.reduce(lambda cfg, key: dataclasses.replace(cfg, **{key: obj[key]}), obj, base)
    except InputError as exc:
        raise ProblemFormatError(str(exc)) from None


def load_problem(doc: dict):
    """Build a Problem or ConstrainedProblem from a parsed JSON document.

    Returns (problem, known_solution, config).
    """
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ProblemFormatError(f"unknown keys: {sorted(unknown)}")
    for key in ("dimension", "objective", "feasible_set", "domain_window"):
        if key not in doc:
            raise ProblemFormatError(f"missing required key {key!r}")
    dim = doc["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ProblemFormatError("dimension must be a positive integer")
    # the window's length must equal the dimension, so reading it first
    # refuses a claimed dimension that no list in the document backs
    # before the objective's guards are extracted at that dimension
    window = _window_from_json(doc["domain_window"], dim)
    if not isinstance(doc["objective"], str):
        raise ProblemFormatError("objective must be an expression string")
    objective = _expression(doc["objective"], dim, "objective")
    if not isinstance(doc["feasible_set"], list):
        raise ProblemFormatError("feasible_set must be a list of atoms")
    atoms = tuple(_atom_from_json(a, dim) for a in doc["feasible_set"])
    cfg = config_from_json(doc.get("config", {}))

    known = None
    if "known_solution" in doc:
        known = _reals(doc["known_solution"], "known_solution", dim)

    if "constraints" in doc:
        constraints = doc["constraints"]
        if not isinstance(constraints, list) or not constraints or not all(
            isinstance(g, str) for g in constraints
        ):
            raise ProblemFormatError("constraints must be a nonempty list of strings")
        if atoms:
            raise ProblemFormatError(
                "constrained problems take their set atoms in ground_set; "
                "feasible_set must be empty"
            )
        ground = doc.get("ground_set", [])
        if not isinstance(ground, list):
            raise ProblemFormatError("ground_set must be a list of atoms")
        constraints = tuple(
            _expression(g, dim, f"constraints[{i}]") for i, g in enumerate(constraints)
        )
        ground_atoms = tuple(_atom_from_json(a, dim) for a in ground)
        problem = ConstrainedProblem(
            objective,
            constraints,
            ConvexSetDescriptor(dim, ground_atoms),
            dim,
            window,
        )
    else:
        if "ground_set" in doc:
            raise ProblemFormatError("ground_set requires constraints")
        problem = Problem(objective, ConvexSetDescriptor(dim, atoms), dim, window)
        _probe_nonempty(problem.feasible_set, window, known, cfg.eps_feas)
    return problem, known, cfg


def _expression(text: str, dim: int, field: str):
    """The parsed text of a document field; a ParseError, with its message
    and offset, becomes a ProblemFormatError that names the field."""
    try:
        return parse(text, dim)
    except ParseError as exc:
        raise ProblemFormatError(f"{field}: {exc}") from exc


def _probe_nonempty(S: ConvexSetDescriptor, window: Box, known, eps_feas: float):
    if known is not None:
        if not contains(S, known, eps_feas):
            raise ProblemFormatError("known_solution is not in the feasible set")
        return
    if not len(sample_grid(S, window, 9, eps_feas)):
        raise ProblemFormatError(
            "feasible set appears empty on a coarse window probe"
        )


def dump_problem(
    problem,
    known_solution=None,
    config: Optional[dict] = None,
) -> dict:
    """Canonical JSON document for a problem (inverse of load_problem)."""
    doc: Dict[str, object] = {
        "dimension": problem.dimension,
        "objective": pretty(problem.objective),
    }
    if isinstance(problem, ConstrainedProblem):
        doc["feasible_set"] = []
        doc["constraints"] = [pretty(g) for g in problem.constraints]
        doc["ground_set"] = [_atom_to_json(a) for a in problem.ground_set.atoms]
    else:
        doc["feasible_set"] = [_atom_to_json(a) for a in problem.feasible_set.atoms]
    doc["domain_window"] = {
        "lo": list(problem.domain_window.lo),
        "hi": list(problem.domain_window.hi),
    }
    if known_solution is not None:
        doc["known_solution"] = [float(v) for v in known_solution]
    if config:
        doc["config"] = dict(config)
    return doc


def _json_document(text: str):
    """The JSON value of a problem or config file's text; text that is
    not JSON, or nests too deeply to read, is a ProblemFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ProblemFormatError("invalid JSON: nested too deeply") from None


def loads(text: str):
    """load_problem of a document's text, loaded once per process and kept
    in sets' store under the exact text: an edited document is new text."""
    return _kept(("document", text), lambda: load_problem(_json_document(text)))


def dumps(problem, known_solution=None, config=None) -> str:
    return json.dumps(dump_problem(problem, known_solution, config), indent=2)
