"""Flat ``key = value`` experiment configuration files.

Blank lines and ``#`` comments are ignored; keys are dotted lowercase
names; duplicate keys are rejected. Each command validates its keys
against a fixed schema so typos fail loudly instead of silently using a
default.
"""

from .errors import ConfigError


def parse_config(text: str) -> dict:
    """Parse config text into a flat {key: raw string} mapping."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is dropped
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_floats(raw: str):
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _parse_ints(raw: str):
    return tuple(int(p) for p in raw.split(",") if p.strip())


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "floats": _parse_floats,
    "ints": _parse_ints,
}

_RUN_KEYS = {
    "n1": "int", "n2": "int", "l1": "float", "l2": "float",
    "dt": "float", "t_end": "float", "scheme": "str",
    "alpha": "float", "kappa": "float", "m": "int", "seed": "int",
    "data.kind": "str", "data.delta": "float",
    "output.every": "float", "output.dir": "str",
    "nonlinear": "bool", "coupling": "bool",
}

COMMAND_KEYS = {
    "nonlinear-run": dict(_RUN_KEYS),
    "audit-energy": dict(_RUN_KEYS),
    "linear-decay": {
        "profile": "str", "t.min": "float", "t.max": "float", "t.count": "int",
        "window.lo": "float", "window.hi": "float", "j": "ints",
        "output.dir": "str",
    },
    "audit-lemma": {
        "xi1.min": "float", "xi1.max": "float", "xi1.count": "int",
        "t.min": "float", "t.max": "float", "t.count": "int",
        "samples": "int", "seed": "int", "output.dir": "str",
    },
    "audit-embedding": {
        "n1": "int", "n2": "int", "l1": "float", "l2": "float", "m": "int",
        "widths": "floats", "modes": "ints", "output.dir": "str",
    },
    "fit": {
        "input": "str", "window.lo": "float", "window.hi": "float",
        "expected": "float", "output.dir": "str",
    },
}


def typed_config(command: str, raw: dict) -> dict:
    """Validate raw config keys for one command and coerce values."""
    if command not in COMMAND_KEYS:
        raise ConfigError(f"unknown command {command!r}")
    schema = COMMAND_KEYS[command]
    out: dict = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"key {key!r} is not valid for command {command!r}")
        try:
            out[key] = _PARSERS[schema[key]](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return out
