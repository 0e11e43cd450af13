"""Run configuration: strict JSON ingestion with unknown-field rejection.

This module checks the JSON shape of a config: its keys and the JSON type of
each value.  Every range is checked by the type or function that owns the
value; ``owned`` turns that owner's rejection into a ConfigError naming the
field.  ``REPORT_SHAPE`` checks the JSON shape of the report fields that
``certify_split`` reads.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field

from clipreg.netcore import ClipregError, DomainSpec, check_seed
from clipreg.adversary import Budget, DictSpec
from clipreg.decomposer import m_budget_for


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        self.detail = message
        super().__init__(f"config field {field_name!r}: {message}")


def owned(prefix: str, build, *args, **kwargs):
    """Call `build`, the owner of some config values; a range check it fails
    becomes a ConfigError for the field `prefix` + the parameter it names."""
    try:
        return build(*args, **kwargs)
    except ClipregError as e:
        if e.param is None:
            raise
        raise ConfigError(prefix + e.param, str(e)) from e


def _kind(what: str, test):
    def check(value, where):
        if not test(value):
            raise ConfigError(where, f"must be {what}, got {value!r}")
    return check


_INT = _kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
# an integer too large for a float is not a finite number either
_NUM = _kind("a finite number", lambda v: isinstance(v, (int, float))
             and not isinstance(v, bool) and abs(v) <= sys.float_info.max)
_STR = _kind("a string", lambda v: isinstance(v, str))
_BOOL = _kind("a boolean", lambda v: isinstance(v, bool))


def _object(kinds: dict, optional=frozenset(), closed=True):
    """Check an object's keys, then, in the order of `kinds`, that each key is
    present and its value of the JSON type `kinds` gives.  A closed object
    has no keys beyond `kinds`."""
    def check(obj, where):
        def name(key):
            return f"{where}.{key}" if where else key

        if not isinstance(obj, dict):
            raise ConfigError(where or "config", "expected an object")
        unknown = set(obj) - set(kinds)
        if closed and unknown:
            raise ConfigError(name(sorted(unknown)[0]), "unknown field")
        for key, kind in kinds.items():
            if key in obj:
                kind(obj[key], name(key))
            elif key not in optional:
                raise ConfigError(name(key), "missing required field")
    return check


def _list(kind):
    def check(items, where):
        if not isinstance(items, list):
            raise ConfigError(where, "expected a list")
        for i, item in enumerate(items):
            kind(item, f"{where}[{i}]")
    return check


def _numbers(obj, where):
    """An object of target parameters: any keys, finite numbers as values."""
    _object(dict.fromkeys(obj, _NUM) if isinstance(obj, dict) else {})(obj, where)


_OUTPUTS = ("report", "trace", "witness")
_SHAPE = _object({
    "domain": _object({"n": _INT, "q": _NUM}),
    "dict": _object({"d": _INT, "r": _INT}),
    "epsilon": _NUM,
    "quadrature": _object({"scheme": _STR, "size": _INT, "seed": _INT}),
    "solver": _object({"restarts": _INT, "iterations": _INT, "step0": _NUM,
                       "decay": _NUM, "seed": _INT}),
    "target": _object({"name": _STR, "params": _numbers}, {"params"}),
    "stage_dict": _STR,
    "output": _object(dict.fromkeys(_OUTPUTS, _STR), set(_OUTPUTS)),
}, {"stage_dict", "output"})


_NET = _object({"n": _INT, "q": _NUM,
                "layers": _list(_list(_object({"w": _list(_NUM), "b": _NUM})))})
_CERT = _object({"d": _INT, "r": _INT})
# the fields of a report that certify_split reads
REPORT_SHAPE = _object({
    "g": _NET,
    "residual_l2_sq": _NUM,
    "residual_l1": _NUM,
    "m_prime": _INT,
    "m_budget": _INT,
    "budget_exhausted": _BOOL,
    "epsilon": _NUM,
    "trace": _object({"t0": _NUM, "picks": _list(_object(
        {"k": _INT, "t_after": _NUM, "gain": _NUM, "lambda": _NUM, "element": _NET},
        closed=False))}),
    "conservative_cert": _CERT,
    "constructive_cert": _CERT,
    "audit": _object({"result": _object({"value": _NUM, "witness": _NET}, closed=False),
                      "invisible_up_to_budget": _BOOL, "note": _STR}, closed=False),
}, closed=False)


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str
    size: int
    seed: int


@dataclass(frozen=True)
class TargetSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OutputSpec:
    report: str = "report.json"
    trace: str = "trace.csv"
    witness: str = "witness.json"


@dataclass(frozen=True)
class RunConfig:
    dict_spec: DictSpec
    epsilon: float
    quadrature: QuadratureSpec
    budget: Budget
    solver_seed: int
    target: TargetSpec
    stage_dict: str = "fixed"
    output: OutputSpec = OutputSpec()

    @property
    def domain(self) -> DomainSpec:
        return self.dict_spec.domain

    def echo(self) -> dict:
        return {
            "domain": asdict(self.domain),
            "dict": {"d": self.dict_spec.d, "r": self.dict_spec.r},
            "epsilon": self.epsilon,
            "quadrature": asdict(self.quadrature),
            "solver": {**asdict(self.budget), "seed": self.solver_seed},
            "target": asdict(self.target),
            "stage_dict": self.stage_dict,
        }


def parse_config(obj: dict) -> RunConfig:
    """Check the shape of a parsed config and build the objects it describes.

    The quadrature, the target and the stage dictionary are checked by their
    owners when the run builds them (``owned`` in the CLI).
    """
    _SHAPE(obj, "")
    dom, dic, sv = obj["domain"], obj["dict"], obj["solver"]
    domain = owned("domain.", DomainSpec, dom["n"], float(dom["q"]))
    owned("", m_budget_for, obj["epsilon"])
    return RunConfig(
        dict_spec=owned("dict.", DictSpec, dic["d"], dic["r"], domain),
        epsilon=float(obj["epsilon"]),
        quadrature=QuadratureSpec(**obj["quadrature"]),
        budget=owned("solver.", Budget, sv["restarts"], sv["iterations"],
                     float(sv["step0"]), float(sv["decay"])),
        solver_seed=owned("solver.", check_seed, sv["seed"]),
        target=TargetSpec(obj["target"]["name"], dict(obj["target"].get("params", {}))),
        stage_dict=obj.get("stage_dict", "fixed"),
        output=OutputSpec(**obj.get("output", {})),
    )


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError, or int()'s digit limit
            raise ConfigError("<file>", f"invalid JSON: {e}") from e
    return parse_config(obj)
