"""Command-line entry point.

Typical runs:

    curbmap --write-default-config > pipeline.cfg
    curbmap --gen-scene scene.cfg --out-cloud street.xyz
    curbmap --input street.xyz --format xyz --out-grid street.sgrd \
            --out-raster street.ppm --threads 4

Flags override values from --config. Exit code 0 on success; a failed
stage prints a stage-named diagnostic to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import configparser

from .cloud import write_cloud
from .config import (PipelineConfig, default_config_text, parse_config, parse_crop)
from .errors import CurbmapError, PipelineError
from .pipeline import run_pipeline
from .scene import SceneSpec, generate_scene
from .voting import VotingParams


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curbmap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--input", help="input point cloud path")
    p.add_argument("--format", choices=("pcd", "xyz"), help="input format")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--crop", help='crop box "x0,y0,z0,x1,y1,z1"')
    p.add_argument("--sigma", type=float, help="voting decay scale in meters")
    p.add_argument("--threads", type=int, help="worker thread count")
    p.add_argument("--out-cloud", help="write the labeled cloud here")
    p.add_argument("--out-dem", help="write the refined DEM (ASCII grid) here")
    p.add_argument("--out-raster", help="write the semantic raster (P6 pixmap) here")
    p.add_argument("--out-grid", help="write the compact semantic grid (SGRD) here")
    p.add_argument("--gen-scene", metavar="SPEC",
                   help="generate a synthetic scene from SPEC and write it to --out-cloud")
    p.add_argument("--write-default-config", action="store_true",
                   help="print a documented default config and exit")
    return p


def _scene_spec_from_file(path: str) -> SceneSpec:
    cp = configparser.ConfigParser()
    cp.read_string(Path(path).read_text())
    if not cp.has_section("scene"):
        raise CurbmapError(f"{path}: missing [scene] section")
    sec = cp["scene"]
    kwargs = {}
    for f in dataclasses.fields(SceneSpec):
        if f.name not in sec:
            continue
        raw = sec[f.name].strip()
        if f.name == "wall_x":
            kwargs[f.name] = tuple(float(v) for v in raw.split(",") if v.strip())
        elif f.name == "canopy_blobs":
            blobs = []
            for chunk in raw.split(";"):
                if chunk.strip():
                    blobs.append(tuple(float(v) for v in chunk.split(",")))
            kwargs[f.name] = tuple(blobs)
        elif f.name == "seed":
            kwargs[f.name] = int(raw)
        else:
            kwargs[f.name] = float(raw)
    return SceneSpec(**kwargs)


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    config = parse_config(Path(args.config).read_text()) if args.config else PipelineConfig()
    updates = {}
    if args.input:
        updates["input_path"] = args.input
    if args.format:
        updates["input_format"] = args.format
    if args.crop:
        updates["crop"] = parse_crop(args.crop)
    if args.sigma is not None:
        updates["voting"] = VotingParams(
            sigma=args.sigma, include_self=config.voting.include_self)
    if args.threads is not None:
        updates["threads"] = args.threads
    for flag in ("out_cloud", "out_dem", "out_raster", "out_grid"):
        value = getattr(args, flag)
        if value:
            updates[flag] = value
    return dataclasses.replace(config, **updates)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.write_default_config:
        sys.stdout.write(default_config_text())
        return 0

    try:
        if args.gen_scene:
            if not args.out_cloud:
                print("error: --gen-scene requires --out-cloud", file=sys.stderr)
                return 2
            spec = _scene_spec_from_file(args.gen_scene)
            cloud = generate_scene(spec)
            Path(args.out_cloud).write_bytes(write_cloud(cloud, args.format or "xyz"))
            print(f"wrote {len(cloud)} points to {args.out_cloud}")
            return 0

        config = _merge_config(args)
        if not config.input_path:
            print("error: no input (use --input or a config file)", file=sys.stderr)
            return 2
        result = run_pipeline(config)
        for line in result.timing.lines():
            print(line)
        for path in result.written:
            print(f"wrote: {path}")
        return 0
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CurbmapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
