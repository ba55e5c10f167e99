"""Pipeline configuration: one flat key = value file, one dataclass.

The file uses INI sections named after the package modules. Every value
has a default; a template with all defaults and inline documentation
comes from default_config_text() (the CLI's --write-default-config).
Serialization uses repr for floats so parse(write(config)) reproduces an
equal config exactly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_crop(text: str) -> CropBox:
    """Crop box from "x0,y0,z0,x1,y1,z1"."""
    parts = [float(p) for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 6:
        raise ValueError(f"crop needs 6 numbers, got {len(parts)}")
    return CropBox(tuple(parts[:3]), tuple(parts[3:]))


def write_config(config: PipelineConfig) -> str:
    """Serialize a config to the key = value file format."""
    cp = configparser.ConfigParser()
    cp["cloud"] = {
        "input": config.input_path,
        "format": config.input_format,
        "crop": "" if config.crop is None else ",".join(
            _fmt(v) for v in (*config.crop.min_corner, *config.crop.max_corner)),
    }
    cp["voting"] = {
        "sigma": _fmt(config.voting.sigma),
        "cutoff": _fmt(config.voting.cutoff),
        "include_self": _fmt(config.voting.include_self),
    }
    g = config.ground
    cp["dem"] = {
        "stick_threshold": _fmt(g.stick_threshold),
        "max_angle_deg": _fmt(g.max_angle_deg),
        "height_cell": _fmt(g.height_cell),
        "refined_cell": _fmt(g.refined_cell),
        "coarse_cell": _fmt(g.coarse_cell),
        "consistency": _fmt(g.consistency),
        "min_samples": _fmt(g.min_samples),
    }
    c = config.curb
    cp["curb"] = {
        "plate_threshold": _fmt(c.plate_threshold),
        "height_ceiling": _fmt(c.height_ceiling),
        "height_floor": _fmt(c.height_floor),
        "outlier_radius": _fmt(c.outlier_radius),
        "outlier_min_neighbors": _fmt(c.outlier_min_neighbors),
    }
    s = config.classify
    cp["semantic"] = {
        "cell": _fmt(s.cell),
        "min_points": _fmt(s.min_points),
        "robot_height": _fmt(s.robot_height),
        "wall_point_threshold": _fmt(s.wall_point_threshold),
        "road_tolerance": _fmt(s.road_tolerance),
    }
    cp["run"] = {
        "threads": _fmt(config.threads),
        "out_cloud": config.out_cloud,
        "out_dem": config.out_dem,
        "out_raster": config.out_raster,
        "out_grid": config.out_grid,
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> PipelineConfig:
    """Config from file text; missing keys keep their defaults."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    defaults = PipelineConfig()

    def get(section, key, conv, fallback):
        if not cp.has_option(section, key) or cp.get(section, key).strip() == "":
            return fallback
        raw = cp.get(section, key).strip()
        try:
            return cp.BOOLEAN_STATES[raw.lower()] if conv is bool else conv(raw)
        except (KeyError, ValueError):
            raise ValueError(f"[{section}] {key}: expected {conv.__name__}, got {raw!r}") from None

    crop_text = get("cloud", "crop", str, "")
    voting = VotingParams(
        sigma=get("voting", "sigma", float, defaults.voting.sigma),
        cutoff=get("voting", "cutoff", float, None),
        include_self=get("voting", "include_self", bool, True),
    )
    ground = GroundParams(
        stick_threshold=get("dem", "stick_threshold", float, defaults.ground.stick_threshold),
        max_angle_deg=get("dem", "max_angle_deg", float, defaults.ground.max_angle_deg),
        height_cell=get("dem", "height_cell", float, defaults.ground.height_cell),
        refined_cell=get("dem", "refined_cell", float, defaults.ground.refined_cell),
        coarse_cell=get("dem", "coarse_cell", float, defaults.ground.coarse_cell),
        consistency=get("dem", "consistency", float, defaults.ground.consistency),
        min_samples=get("dem", "min_samples", int, defaults.ground.min_samples),
    )
    curb = CurbParams(
        plate_threshold=get("curb", "plate_threshold", float, defaults.curb.plate_threshold),
        height_ceiling=get("curb", "height_ceiling", float, defaults.curb.height_ceiling),
        height_floor=get("curb", "height_floor", float, defaults.curb.height_floor),
        outlier_radius=get("curb", "outlier_radius", float, defaults.curb.outlier_radius),
        outlier_min_neighbors=get("curb", "outlier_min_neighbors", int,
                                  defaults.curb.outlier_min_neighbors),
    )
    classify = ClassifyParams(
        cell=get("semantic", "cell", float, defaults.classify.cell),
        min_points=get("semantic", "min_points", int, defaults.classify.min_points),
        robot_height=get("semantic", "robot_height", float, defaults.classify.robot_height),
        wall_point_threshold=get("semantic", "wall_point_threshold", int,
                                 defaults.classify.wall_point_threshold),
        road_tolerance=get("semantic", "road_tolerance", float, defaults.classify.road_tolerance),
    )
    return PipelineConfig(
        input_path=get("cloud", "input", str, ""),
        input_format=get("cloud", "format", str, "xyz"),
        crop=parse_crop(crop_text) if crop_text else None,
        voting=voting,
        ground=ground,
        curb=curb,
        classify=classify,
        threads=get("run", "threads", int, 1),
        out_cloud=get("run", "out_cloud", str, ""),
        out_dem=get("run", "out_dem", str, ""),
        out_raster=get("run", "out_raster", str, ""),
        out_grid=get("run", "out_grid", str, ""),
    )


_TEMPLATE_DOC = """\
# curbmap pipeline configuration. Flat key = value entries grouped by
# module. Every key is optional; the values below are the defaults.

[cloud]
# input point cloud path and format (pcd or xyz)
input =
format = xyz
# optional axis-aligned crop: x0,y0,z0,x1,y1,z1 (inclusive bounds)
crop =

[voting]
# decay scale in meters
sigma = 0.3
# neighbor cutoff radius; leave blank for sigma * sqrt(ln 1000)
cutoff =
# keep each point's unit ball encoding in its accumulated tensor
include_self = true

[dem]
# ground candidates need stick >= stick_threshold * max(stick)
stick_threshold = 0.5
# and a normal within this many degrees of vertical
max_angle_deg = 15.0
# fine height grid cell (m), sample source for both DEM stages
height_cell = 0.5
# refined and coarse DEM cells (m)
refined_cell = 1.0
coarse_cell = 10.0
# refined cells deviating more than this from coarse are invalidated (m)
consistency = 0.3
# minimum candidate points for a valid fine cell
min_samples = 3

[curb]
# curb candidates need plate >= plate_threshold * max(plate)
plate_threshold = 0.3
# keep candidates with height above DEM in [height_floor, height_ceiling]
height_ceiling = 0.5
height_floor = -0.2
# radius outlier filter over the candidate set
outlier_radius = 0.3
outlier_min_neighbors = 3

[semantic]
# occupancy grid resolution (m)
cell = 0.12
# cells with fewer points stay Unknown
min_points = 3
# vehicle clearance separating Obstacle from Wall/Vehicle evidence (m)
robot_height = 1.0
# points above robot_height needed to mark a Wall/Vehicle cell
wall_point_threshold = 10
# max height above DEM for a Road cell (m)
road_tolerance = 0.1

[run]
threads = 1
# output paths; leave blank to skip an export
out_cloud =
out_dem =
out_raster =
out_grid =
"""


def default_config_text() -> str:
    """Commented template documenting every default."""
    return _TEMPLATE_DOC
