"""Scenario files: YAML documents whose schema is the config types.

One reader and one writer walk the annotations of ScenarioConfig and the
types it holds:

- a dataclass or NamedTuple is a mapping of its fields. Unknown keys are
  rejected by key path, a field without a default is required, and an
  omitted one takes the type's default (an object's radius is 1.0);
- ``Optional[X]`` accepts null, and unset optionals are not written;
- ``tuple[X, ...]`` is a list; a fixed ``tuple[X, Y]`` a list of that length;
- bool, int, float and str are strict (a bool is not an int, an int is
  accepted as a float), and numbers must be finite;
- a ValueError from a config's own checks (csma cw_min >= 1, cw_max >=
  cw_min, micro_slot_us >= 0; seed >= 0; object radii > 0; ...) becomes a
  ConfigError prefixed with its key path.

Keys are written in field order; a saved file re-parses to an equal config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING
from importlib import resources
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from .engine import ConfigError, ScenarioConfig


def _optional(tp: Any) -> tuple[Any, bool]:
    """(X, True) for Optional[X]; (tp, False) for any other type."""
    if get_origin(tp) is Union:
        (inner,) = [a for a in get_args(tp) if a is not type(None)]
        return inner, True
    return tp, False


def _is_record(tp: Any) -> bool:
    return dataclasses.is_dataclass(tp) or hasattr(tp, "_fields")


def _fields(tp: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) per field of a dataclass or NamedTuple."""
    hints = get_type_hints(tp)
    if dataclasses.is_dataclass(tp):
        return tuple(
            (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in dataclasses.fields(tp)
        )
    return tuple((n, hints[n], n not in tp._field_defaults) for n in tp._fields)


def _read_record(tp: type, value: Any, path: str, prefix: str) -> Any:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    fields = {name: ftype for name, ftype, _ in _fields(tp)}
    for key in value:
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in {path}")
    for name, _, required in _fields(tp):
        if required and name not in value:
            raise ConfigError(f"{path}: needs {name!r}")
    kwargs = {k: _read(fields[k], v, prefix + k) for k, v in value.items()}
    try:
        return tp(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read(tp: Any, value: Any, path: str) -> Any:
    tp, optional = _optional(tp)
    if value is None and optional:
        return None
    if _is_record(tp):
        return _read_record(tp, value, path, path + ".")
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)}, got {value!r}")
        return tuple(_read(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    return _scalar(tp, value, path)


_KINDS = {bool: "true/false", str: "a string", int: "an integer", float: "a number"}


def _scalar(tp: type, value: Any, path: str) -> Any:
    accepted = (int, float) if tp is float else (tp,)
    if type(value) not in accepted:  # exact types: a bool is not an int
        raise ConfigError(f"{path}: expected {_KINDS[tp]}, got {value!r}")
    if tp is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _write(tp: Any, value: Any) -> Any:
    tp, _ = _optional(tp)
    if _is_record(tp):
        fields = _fields(tp)
        if dataclasses.is_dataclass(value):
            value = [getattr(value, name) for name, _, _ in fields]
        # a NamedTuple or a plain tuple matches the fields by position
        return {n: _write(t, v) for (n, t, _), v in zip(fields, value) if v is not None}
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return [_write(a, v) for a, v in zip(args, value)]
    return value


def parse_scenario(text: str, name: str = "<scenario>") -> ScenarioConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"{name}: parse error{where}: {exc}") from exc
    return _read_record(ScenarioConfig, {} if raw is None else raw, name, "")


def load_scenario(path: Union[str, Path]) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, name=str(path))


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return _write(ScenarioConfig, cfg)


def save_scenario(cfg: ScenarioConfig, path: Union[str, Path]) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False))


def bundled_scenario(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'fig5_line3')."""
    if not name.endswith(".scenario"):
        name += ".scenario"
    path = Path(str(resources.files(__package__) / "scenarios" / name))
    if not path.exists():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return path
