"""Command-line entry point.

Typical runs:

    curbmap --write-default-config > pipeline.cfg
    curbmap --input street.xyz --format xyz --out-grid street.sgrd \
            --out-raster street.ppm --threads 4

Flags override values from --config. A run prints its report and the
files written on stdout as one JSON object. Exit code 0 on success; a
failed stage prints a stage-named diagnostic to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from .config import PipelineConfig, config_sections, default_config_text, parse_config
from .errors import CurbmapError
from .pipeline import run_pipeline


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
    p.add_argument("--write-default-config", action="store_true",
                   help="print a documented default config and exit")
    return p


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
        config = _merge_config(args)
        if not config.input_path:
            print("error: no input (use --input or a config file)", file=sys.stderr)
            return 2
        result = run_pipeline(config)
        print(result.timing.to_json(written=result.written))
        return 0
    except (CurbmapError, OSError, ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
