"""Run configuration: a small INI dialect with strict, line-anchored errors.

configparser keeps no line numbers, so the reader here is hand-rolled: a
flat section/key scan that remembers where every entry came from. Unknown
sections or keys are rejected with path:line messages instead of being
ignored, and emit() writes a canonical form whose parse is identical to the
original (round-trip stability is part of the contract and is tested).

A file becomes the RunConfig that run() takes; output paths come from the
command line only. The [solver] keys are RunConfig's number fields, by the
same names. Every [solver] value is range-checked by RunConfig when the file
is read, and a bad one is reported as a ConfigError naming the file.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ConfigError
from .grid import Grid
from .model import DATUM_KEYS, PROFILE_KEYS, DissipationProfile, InitialDatum
from .solver import RunConfig

_FLOAT_LIST = "float_list"
_NUMBER_TYPES = {"float": float}   # RunConfig's annotations are strings

# the key that picks a section's variant, and the keys each variant takes
# (besides delta_sup, which every kind takes)
_VARIANT_KEYS = {"datum": ("family", DATUM_KEYS), "dissipation": ("kind", PROFILE_KEYS)}
_SCHEMA: dict[str, dict[str, object]] = {
    "grid": {"half_length": float, "n_points": int},
    "datum": {"family": str, "amplitude": float, "width": float,
              "center": float, "values": _FLOAT_LIST},
    "dissipation": {"kind": str, "delta_sup": float,
                    **{key: _FLOAT_LIST if kind == "piecewise" else float
                       for kind, keys in PROFILE_KEYS.items() for key in keys}},
    "solver": {f.name: _NUMBER_TYPES[f.type] for f in fields(RunConfig)
               if f.type in _NUMBER_TYPES},
    "characteristics": {"seeds": _FLOAT_LIST},
}


def _read_sections(text: str, path: str):
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"{path}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if current is None:
            raise ConfigError(f"{path}:{lineno}: entry outside any [section]")
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (val.strip(), lineno)
    return sections, section_lines


def _convert(path: str, section: str, key: str, raw: str, lineno: int, kind):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is _FLOAT_LIST:
            toks = raw.replace(",", " ").split()
            if not toks:
                raise ValueError("empty list")
            return tuple(float(t) for t in toks)
        return raw
    except ValueError:
        want = {float: "a number", int: "an integer", _FLOAT_LIST: "a list of numbers"}[kind]
        raise ConfigError(
            f"{path}:{lineno}: [{section}] {key} expects {want}, got {raw!r}") from None


def _validate_and_convert(text: str, path: str) -> dict[str, dict[str, object]]:
    sections, section_lines = _read_sections(text, path)
    out: dict[str, dict[str, object]] = {}
    for name, entries in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(f"{path}:{section_lines[name]}: unknown section [{name}]")
        table = _SCHEMA[name]
        tag, variants = _VARIANT_KEYS.get(name, (None, {}))
        variant = entries.get(tag, ("", 0))[0]
        applies = variants.get(variant)
        out[name] = {}
        for key, (raw, lineno) in entries.items():
            if key not in table:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{name}]")
            if applies is not None and key not in (tag, "delta_sup", *applies):
                raise ConfigError(
                    f"{path}:{lineno}: [{name}] {key} does not apply to {tag} {variant!r}")
            out[name][key] = _convert(path, name, key, raw, lineno, table[key])
    return out


def _require(data: dict, section: str, key: str):
    if section not in data or key not in data[section]:
        raise ConfigError(f"missing required [{section}] {key}")
    return data[section][key]


def _variant(data: dict, name: str) -> dict:
    """Section [name] with a known variant and every key that variant needs:
    all it takes but a datum's center, and a linear_ramp's delta_sup."""
    if name not in data:
        raise ConfigError(f"missing section [{name}]")
    sec, (tag, variants) = data[name], _VARIANT_KEYS[name]
    variant = sec.get(tag)
    if variant not in variants:
        raise ConfigError(f"[{name}] {tag} must be one of {tuple(variants)}, got {variant!r}")
    needs = (*variants[variant], "delta_sup") if variant == "linear_ramp" else variants[variant]
    missing = [k for k in needs if k != "center" and k not in sec]
    if missing:
        raise ConfigError(f"[{name}] {tag} {variant!r} needs {', '.join(missing)}")
    return sec


def parse_config(text: str, path: str = "<config>", adapt_profile=None) -> RunConfig:
    """adapt_profile, if given, maps the file's profile to the one RunConfig checks."""
    data = _validate_and_convert(text, path)
    try:    # past the line scan, every error names the path here, once
        try:
            grid = Grid(_require(data, "grid", "half_length"), _require(data, "grid", "n_points"))
        except ValueError as exc:
            raise ConfigError(f"[grid] {exc}") from None
        datum, diss = InitialDatum(**_variant(data, "datum")), _variant(data, "dissipation")
        # each kind's constructor takes its keys by name
        profile = getattr(DissipationProfile, diss["kind"])(
            **{k: v for k, v in diss.items() if k != "kind"})
        if adapt_profile is not None:
            profile = adapt_profile(profile)
        _require(data, "solver", "t_end")
        return RunConfig(grid=grid, datum=datum, profile=profile,
                         seeds=data.get("characteristics", {}).get("seeds", ()),
                         **data["solver"])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str, adapt_profile=None) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        text = raw.decode("utf-8-sig")   # a leading byte-order mark is not text
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text") from None
    return parse_config(text, path, adapt_profile)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical INI text whose parse equals cfg exactly."""
    lines: list[str] = []

    def section(name: str, pairs) -> None:
        if lines:
            lines.append("")
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {_fmt(v)}" for k, v in pairs)

    section("grid", [("half_length", cfg.grid.half_length),
                     ("n_points", cfg.grid.n_points)])
    d = cfg.datum
    section("datum", [("family", d.family),
                      *((k, getattr(d, k)) for k in DATUM_KEYS[d.family])])
    p = cfg.profile
    values = (p.knot_times, p.knot_values) if p.kind == "piecewise" else p.params
    diss_pairs = [("kind", p.kind), *zip(PROFILE_KEYS[p.kind], values),
                  ("delta_sup", p.delta_sup)]
    section("dissipation", diss_pairs)
    section("solver", [(k, getattr(cfg, k)) for k in _SCHEMA["solver"]])
    if cfg.seeds:
        section("characteristics", [("seeds", cfg.seeds)])
    lines.append("")
    return "\n".join(lines)
