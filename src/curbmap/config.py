"""Pipeline configuration: one flat key = value file, one dataclass.

The file uses INI sections named after the package modules. Every value
has a default; a template with all defaults and inline documentation
comes from default_config_text() (the CLI's --write-default-config).
Keys come from one section table; an unknown section or key is an error.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .cloud import CropBox
from .curb import CurbParams
from .dem import GroundParams
from .semantic import ClassifyParams
from .voting import VotingParams


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str = ""
    input_format: str = "xyz"
    crop: CropBox | None = None
    voting: VotingParams = field(default_factory=VotingParams)
    ground: GroundParams = field(default_factory=GroundParams)
    curb: CurbParams = field(default_factory=CurbParams)
    classify: ClassifyParams = field(default_factory=ClassifyParams)
    threads: int = 1
    out_cloud: str = ""
    out_dem: str = ""
    out_raster: str = ""
    out_grid: str = ""


# Section -> the PipelineConfig field whose parameter class supplies the
# keys, or an explicit {key: PipelineConfig field} map. Order is file order.
_SECTIONS = {
    "cloud": {"input": "input_path", "format": "input_format", "crop": "crop"},
    "voting": "voting",
    "dem": "ground",
    "curb": "curb",
    "semantic": "classify",
    "run": {k: k for k in ("threads", "out_cloud", "out_dem", "out_raster", "out_grid")},
}


def config_sections(config: PipelineConfig):
    """Yield (section, field, owner, keys) per config file section: owner
    is config (field None) or its parameter object in that field, and keys
    maps each key of the section to an attribute of owner."""
    for section, spec in _SECTIONS.items():
        if isinstance(spec, dict):
            yield section, None, config, spec
        else:
            owner = getattr(config, spec)
            yield section, spec, owner, {f.name: f.name for f in fields(owner)}


def parse_crop(text: str) -> CropBox | None:
    """Crop box from "x0,y0,z0,x1,y1,z1"; None for blank text."""
    if not text.strip():
        return None
    parts = [float(p) for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 6:
        raise ValueError(f"crop needs 6 numbers, got {len(parts)}")
    return CropBox(tuple(parts[:3]), tuple(parts[3:]))


def parse_config(text: str, overrides: dict[str, dict[str, str]] | None = None) -> PipelineConfig:
    """Config from file text; missing or blank keys keep their defaults.

    overrides, {section: {key: text}}, replace single file values before
    they are read, so a blank or absent cutoff still follows an overridden
    sigma. Each value converts by its default's type (float for None;
    crop by parse_crop). An unknown section or key, or a bad value,
    raises ValueError naming [section] key."""
    # no interpolation, and [DEFAULT] is an ordinary (so unknown) section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.read_string(text)
    cp.read_dict(overrides or {})
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(f"[{section}]: unknown config section")
    values = {}
    for section, field_name, owner, keys in config_sections(PipelineConfig()):
        given = {}
        for key, raw in cp.items(section) if cp.has_section(section) else []:
            if key not in keys:
                raise ValueError(f"[{section}] {key}: unknown key")
            attr, text = keys[key], raw.strip()
            if attr == "crop":
                try:
                    given[attr] = parse_crop(text)
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key}: {exc}") from None
            elif text:
                default = getattr(owner, attr)
                kind = float if default is None else type(default)
                try:
                    given[attr] = kind(text)
                except ValueError:
                    raise ValueError(f"[{section}] {key}: expected {kind.__name__}, "
                                     f"got {text!r}") from None
        if field_name:
            values[field_name] = type(owner)(**given)
        else:
            values.update(given)
    if values.get("input_format", "xyz").lower() not in ("pcd", "xyz"):
        raise ValueError(f"[cloud] format: expected pcd or xyz, got {values['input_format']!r}")
    return PipelineConfig(**values)


# Comment lines written above a key in default_config_text().
_KEY_DOCS = {
    ("cloud", "input"): "input point cloud path and format (pcd or xyz)",
    ("cloud", "crop"): "optional axis-aligned crop: x0,y0,z0,x1,y1,z1 (inclusive bounds)",
    ("voting", "sigma"): "decay scale in meters",
    ("voting", "cutoff"): "neighbor cutoff radius; leave blank for sigma * sqrt(ln 1000)",
    ("dem", "stick_threshold"): "ground candidates need stick >= stick_threshold * max(stick)",
    ("dem", "max_angle_deg"): "and a normal within this many degrees of vertical",
    ("dem", "height_cell"): "fine height grid cell (m), sample source for both DEM stages",
    ("dem", "refined_cell"): "refined and coarse DEM cells (m)",
    ("dem", "consistency"):
        "refined cells deviating more than this from coarse are invalidated (m)",
    ("dem", "min_samples"): "minimum candidate points for a valid fine cell",
    ("curb", "plate_threshold"): "curb candidates need plate >= plate_threshold * max(plate)",
    ("curb", "height_ceiling"):
        "keep candidates with height above DEM in [height_floor, height_ceiling]",
    ("curb", "outlier_radius"): "radius outlier filter over the candidate set",
    ("semantic", "cell"): "occupancy grid resolution (m)",
    ("semantic", "min_points"): "cells with fewer points stay Unknown",
    ("semantic", "robot_height"):
        "vehicle clearance separating Obstacle from Wall/Vehicle evidence (m)",
    ("semantic", "wall_point_threshold"):
        "points above robot_height needed to mark a Wall/Vehicle cell",
    ("semantic", "road_tolerance"): "max height above DEM for a Road cell (m)",
    ("run", "out_cloud"): "output paths; leave blank to skip an export",
}


def default_config_text() -> str:
    """Commented template documenting every default.

    Each key shows its declared default, so cutoff stays blank and
    follows sigma."""
    lines = ["# curbmap pipeline configuration. Flat key = value entries grouped by",
             "# module. Every key is optional; the values below are the defaults."]
    for section, _, owner, keys in config_sections(PipelineConfig()):
        declared = {f.name: f.default for f in fields(owner)}
        lines += ["", f"[{section}]"]
        for key, attr in keys.items():
            if (section, key) in _KEY_DOCS:
                lines.append(f"# {_KEY_DOCS[section, key]}")
            value = declared[attr]
            lines.append(f"{key} = {'' if value is None else value}".rstrip())
    return "\n".join(lines) + "\n"
