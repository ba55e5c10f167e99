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

from .cloud import cloud_chunks
from .config import (PipelineConfig, config_sections, default_config_text, ini_parser,
                     parse_config, read_section)
from .errors import CurbmapError, PipelineError
from .pipeline import run_pipeline
from .scene import SceneSpec, generate_scene


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
    p.add_argument("--report", metavar="PATH",
                   help="write the run report (stage seconds, counts, peak RSS) as JSON here")
    p.add_argument("--gen-scene", metavar="SPEC",
                   help="generate a synthetic scene from SPEC and write it to --out-cloud")
    p.add_argument("--write-default-config", action="store_true",
                   help="print a documented default config and exit")
    return p


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _scene_spec_from_file(path: str) -> SceneSpec:
    cp = ini_parser()
    cp.read_string(Path(path).read_text())
    if cp.sections() != ["scene"]:
        raise CurbmapError(f"{path}: expected one [scene] section, got {cp.sections()}")
    special = {"wall_x": _floats,
               "canopy_blobs": lambda t: tuple(map(_floats, filter(str.strip, t.split(";"))))}
    keys = {f.name: f.name for f in dataclasses.fields(SceneSpec)}
    return SceneSpec(**read_section(cp.items("scene"), "scene", SceneSpec(), keys, special))


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    """The --config file's values, with each given flag overriding the key of its name."""
    overrides = {section: {key: str(value) for key in keys
                           if (value := getattr(args, key, None)) not in (None, "")}
                 for section, _, _, keys in config_sections(PipelineConfig())}
    return parse_config(Path(args.config).read_text() if args.config else "", overrides)


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
            with open(args.out_cloud, "wb") as out:
                out.writelines(cloud_chunks(cloud, args.format or "xyz"))
            print(f"wrote {len(cloud)} points to {args.out_cloud}")
            return 0

        config = _merge_config(args)
        if not config.input_path:
            print("error: no input (use --input or a config file)", file=sys.stderr)
            return 2
        result = run_pipeline(config)
        for line in result.timing.lines():
            print(line)
        if args.report:
            Path(args.report).write_text(result.timing.to_json() + "\n")
        for path in result.written:
            print(f"wrote: {path}")
        return 0
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CurbmapError, OSError, ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
