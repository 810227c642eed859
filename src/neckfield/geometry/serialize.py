"""Declarative text format for configurations and run inputs.

The format is line-based ``key = value`` pairs grouped into ``[section]``
headers. A scene is either canonical (a ``[case]`` section with the case
tag and its parameters, built by ``config.build_case``) or free-form (one
``[body N]`` section per body plus a ``[groups]`` section). Floats are
emitted with ``repr`` so that parse -> emit -> parse is the identity.

An unknown section, or a key that its section does not take, is refused,
not ignored: ``[case]`` takes the parameters of the case's recipe
(``config.CASE_KEYS``) and ``[body N]`` the keys of the body's kind. So are
``[body N]`` sections beside a ``[case]`` section, which builds every body
itself.

Beside the scene, a run file may hold a ``[mesh]`` section (``base_n``
and ``cap``, the mesh controls of every subcommand) and a ``[sweep]``
section: ``vary``, ``grid`` (low, high, points), ``quantities``, ``tie``
(name:ratio pairs), and for ``plot`` only ``plot_quantity`` and
``guide_slope``. The seed is the CLI's ``--seed``, not a key. Every refusal
raises ``ConfigParseError``, which the CLI reports as a configuration error.

An emitted scene is always free-form: it keeps the case tag but carries no
``[case]`` parameters, so sweeping or verifying it, which rebuilds the
scene at other gaps, needs the original run file.

Example::

    [scene]
    case = B

    [case]
    r1 = 1.0
    r2 = 0.05
    r3 = 1.0
    eps1 = 0.001
    eps2 = 0.001

    [background]
    coeffs = 0, 1

    [sweep]
    vary = eps1
    grid = 1e-05, 0.001, 6
    quantities = potential_difference_21, max_gap_gradient_12
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import InvalidGeometryError, InvalidParameterError
from .body import Body
from .config import CASE_KEYS, CASE_TAGS, Configuration, build_case
from .shapes import Disk, HarmonicBackground, SmoothBoundary


class ConfigParseError(InvalidParameterError):
    def __init__(self, message: str, line: Optional[int] = None, column: int = 1):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")


@dataclass
class RunInput:
    """Parsed contents of a run file: the scene, the optional [sweep] section
    as a raw key-value map and the [mesh] section's integer values."""

    cfg: Configuration
    sweep: dict = field(default_factory=dict)
    mesh: dict = field(default_factory=dict)


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigParseError("unterminated section header", ln, len(raw))
            current = line[1:-1].strip().lower()
            if current in sections:
                raise ConfigParseError(f"duplicate section [{current}]", ln)
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", ln)
        if current is None:
            raise ConfigParseError("key outside any [section]", ln)
        key, val = line.split("=", 1)
        sections[current][key.strip().lower()] = val.strip()
    return sections


def _number(section: str, key: str, val: str, kind=float):
    try:
        return kind(val)
    except ValueError:
        raise ConfigParseError(f"[{section}] {key}: {val!r} is not of type {kind.__name__}") from None


def _floats(section: str, key: str, val: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in val.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigParseError(f"[{section}] {key}: bad number list {val!r}") from None


def _parse_background(sections) -> Optional[HarmonicBackground]:
    sec = sections.get("background")
    if not sec:
        return None
    val = sec.get("coeffs", "0, 1")
    try:
        coeffs = tuple(complex(x.strip().replace(" ", "")) for x in val.split(","))
    except ValueError:
        raise ConfigParseError(f"[background] coeffs: bad coefficient list {val!r}") from None
    try:
        return HarmonicBackground(coeffs)
    except InvalidParameterError as exc:
        raise ConfigParseError(f"[background] coeffs: {exc}") from None


def _body_index(name: str) -> int:
    word, _, index = name.partition(" ")
    if word != "body" or not index.strip().isdecimal():
        raise ConfigParseError(f"section [{name}] is not of the form [body N]")
    return int(index)


def _parse_body(name: str, sec: dict[str, str]) -> Body:
    def value(key: str, count: int = 1):
        if key not in sec:
            raise ConfigParseError(f"[{name}] missing key {key!r}")
        v = _floats(name, key, sec[key])
        if len(v) != count:
            raise ConfigParseError(f"[{name}] {key}: {sec[key]!r} is not {count} number(s)")
        return v if count > 1 else v[0]

    kind = sec.get("kind", "disk").lower()
    if kind not in _BODY_KEYS:
        raise ConfigParseError(f"[{name}] kind: unknown body kind {kind!r}")
    _refuse_unknown(name, sec, _BODY_KEYS[kind])
    if kind == "disk":
        values = value("center", 2), value("radius")
    elif kind == "lens":
        values = [(value(f"disk{j}.center", 2), value(f"disk{j}.radius")) for j in (1, 2)]
    else:
        values = value("center", 2), *(_floats(name, k, sec.get(k, ""))
                                        for k in ("cos_x", "sin_x", "cos_y", "sin_y"))
    # the shapes refuse non-finite values and radii, naming the field
    try:
        if kind == "disk":
            return Body.from_disk(Disk(*values))
        if kind == "lens":
            return Body.lens(*(Disk(*v) for v in values))
        return Body.from_smooth(SmoothBoundary(*values))
    except InvalidParameterError as exc:
        raise ConfigParseError(f"[{name}] {exc}") from None


# the keys each section takes; [case] keys belong to the case's recipe
# (CASE_KEYS) and [body N] keys to the body's kind (_BODY_KEYS)
_KEYS = {"scene": {"case"}, "background": {"coeffs"}, "groups": {"conductors"},
         "mesh": {"base_n", "cap"},
         "sweep": {"vary", "grid", "quantities", "tie", "plot_quantity", "guide_slope"}}
_BODY_KEYS = {"disk": {"kind", "center", "radius"},
              "lens": {"kind", "disk1.center", "disk1.radius", "disk2.center", "disk2.radius"},
              "smooth": {"kind", "center", "cos_x", "sin_x", "cos_y", "sin_y"}}


def _refuse_unknown(name: str, sec: dict[str, str], keys: set[str]) -> None:
    unknown = sorted(set(sec) - keys)
    if unknown:
        raise ConfigParseError(f"[{name}] unknown key {unknown[0]!r}")


def parse_run(text: str) -> RunInput:
    sections = _parse_sections(text)
    for name, sec in sections.items():
        if name == "case" or name.startswith("body"):
            continue
        if name not in _KEYS:
            raise ConfigParseError(f"unknown section [{name}]")
        _refuse_unknown(name, sec, _KEYS[name])
    background = _parse_background(sections)
    case_tag = sections.get("scene", {}).get("case", "free").upper()
    if case_tag == "PAIR":
        case_tag = "pair"
    case = sections.get("case")
    if case is not None:
        body_secs = [name for name in sections if name.startswith("body")]
        if body_secs:
            raise ConfigParseError(f"section [{body_secs[0]}] beside [case]: a canonical "
                                   "case builds its own bodies")
        if case_tag in CASE_KEYS:
            _refuse_unknown("case", case, CASE_KEYS[case_tag])
        params = {k: _number("case", k, v) for k, v in case.items()}
        # the recipe refuses a length out of range or a scene it cannot
        # build, as the body sections' shapes do
        try:
            cfg = build_case(case_tag, params, background)
        except (InvalidParameterError, InvalidGeometryError) as exc:
            raise ConfigParseError(f"[case] {exc}") from None
    else:
        body_secs = sorted((name for name in sections if name.startswith("body")),
                           key=_body_index)
        if not body_secs:
            raise ConfigParseError("no [case] section and no [body N] section: "
                                   "the run file has no scene")
        bodies = tuple(_parse_body(name, sections[name]) for name in body_secs)
        gsec = sections.get("groups", {})
        if "conductors" in gsec:
            groups = tuple(tuple(_number("groups", "conductors", i, int) - 1 for i in part.split())
                           for part in gsec["conductors"].split("|"))
        else:
            groups = tuple((i,) for i in range(len(bodies)))
        try:
            cfg = Configuration(bodies, groups,
                                background or HarmonicBackground.linear_x(),
                                case_tag if case_tag in CASE_TAGS else "free")
        except (InvalidParameterError, InvalidGeometryError) as exc:
            raise ConfigParseError(str(exc)) from None
    return RunInput(cfg=cfg,
                    sweep=dict(sections.get("sweep", {})),
                    mesh={k: _number("mesh", k, v, int)
                          for k, v in sections.get("mesh", {}).items()})


def emit_configuration(cfg: Configuration) -> str:
    """Free-form serialization of any configuration; parse(emit(parse(x)))
    equals parse(x)."""
    out = ["[scene]", f"case = {cfg.case_tag}", ""]
    for i, b in enumerate(cfg.bodies, start=1):
        out.append(f"[body {i}]")
        if b.kind == "disk":
            out.append("kind = disk")
            out.append(f"center = {b.disk.center[0]!r}, {b.disk.center[1]!r}")
            out.append(f"radius = {b.disk.radius!r}")
        elif b.kind == "lens":
            out.append("kind = lens")
            for j, d in enumerate(b.lens_disks, start=1):
                out.append(f"disk{j}.center = {d.center[0]!r}, {d.center[1]!r}")
                out.append(f"disk{j}.radius = {d.radius!r}")
        else:
            s = b.smooth
            out.append("kind = smooth")
            out.append(f"center = {s.center[0]!r}, {s.center[1]!r}")
            for name in ("cos_x", "sin_x", "cos_y", "sin_y"):
                vals = getattr(s, name)
                if vals:
                    out.append(f"{name} = " + ", ".join(repr(v) for v in vals))
        out.append("")
    out.append("[groups]")
    out.append("conductors = " + " | ".join(
        " ".join(str(i + 1) for i in g) for g in cfg.groups))
    out.append("")
    out.append("[background]")
    out.append("coeffs = " + ", ".join(_emit_complex(c) for c in cfg.background.coeffs))
    out.append("")
    return "\n".join(out)


def _emit_complex(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    return repr(c).strip("()")


def parse_configuration(text: str) -> Configuration:
    return parse_run(text).cfg
