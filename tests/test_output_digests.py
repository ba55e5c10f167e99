"""Output bytes as a gate: two small scenes' DEM, PPM, SGRD and curb indices
pinned by sha256.

These four outputs are host-independent: they do not move when numpy's
AVX-512 dispatch is switched off or OpenBLAS runs another core's kernels,
which the vote tensors, saliencies and labelled cloud do. Those stay
covered by the bit-exact oracles instead. A change that moves any of the
four on purpose updates DIGESTS in the same commit.

Run as a script, it prints the digests as one JSON object:

    PYTHONPATH=src python tests/test_output_digests.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import curbmap
from curbmap import PipelineConfig, SceneSpec, generate_scene, run_pipeline
from curbmap import dem, semantic

from conftest import STREET_CURB

SCENES = {
    "street": SceneSpec(density=60.0),
    # perfbench's survey workload (seed 1) at 0.3 of its density
    "survey": SceneSpec(extent=40.0, road_width=8.0, wall_x=(12.0, -15.0),
                        canopy_blobs=((-8.0, -10.0, 2.5), (9.0, 6.0, 3.0), (-10.0, 12.0, 2.0)),
                        density=22.5, seed=1),
}

DIGESTS = {
    "street dem": "8f440d635fd2149f4334aef2ee5e813fed818a3f57e4ed739f97ee033530afff",
    "street ppm": "f122410ac03cc15a8fbabd6f10856341a124c5658810c92b3216de327f586375",
    "street sgrd": "53571614deb57d233acc32ee27877b42b29fdfea6c1357b575f91310449df18e",
    "street curb_indices": "05fc52c7fb2878d07f499f496a64edccecee9ac037f5d882cc64658aa4583a88",
    "survey dem": "c5ff3b451dcc1d48c4dcb07bd1bfe0530189a33f4953a4c992f02c8cc98ea44f",
    "survey ppm": "60790824dca1cb15ec6f5993e3de761b23df42e22a7d64e62da8bb3a6b392105",
    "survey sgrd": "6acbbc0a58950028675b787e9d2ed3dbf75647f354836719f8578a7be23f3bd3",
    "survey curb_indices": "91a558db6535cd8e50b7a172d3306ff9c78f153587a9cec4f9db1cfc432cf608",
}

# numpy without its AVX-512 loops, and OpenBLAS on Haswell kernels
OTHER_HOST = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
              "OPENBLAS_CORETYPE": "Haswell"}


def output_digests() -> dict[str, str]:
    """sha256 of each scene's exported DEM, PPM and SGRD bytes and of its
    curb indices as little-endian int64, keyed "<scene> <output>"."""
    digests = {}
    for scene, spec in SCENES.items():
        result = run_pipeline(PipelineConfig(curb=STREET_CURB), cloud=generate_scene(spec))
        outputs = {"dem": dem.to_ascii_grid(result.dem),
                   "ppm": semantic.render_raster(result.grid),
                   "sgrd": semantic.write_compact(result.grid),
                   "curb_indices": result.detection.indices.astype("<i8").tobytes()}
        for name, data in outputs.items():
            digests[f"{scene} {name}"] = hashlib.sha256(data).hexdigest()
    return digests


def assert_pinned(digests):
    moved = [f"{key}: {digests.get(key)} (pinned {pinned})"
             for key, pinned in DIGESTS.items() if digests.get(key) != pinned]
    assert not moved, "outputs moved:\n" + "\n".join(moved)


def test_outputs_match_pinned_digests():
    assert_pinned(output_digests())


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the disabled CPU features are x86's")
def test_outputs_do_not_depend_on_simd_or_blas_kernels():
    src = str(Path(curbmap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **OTHER_HOST)
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert_pinned(json.loads(proc.stdout))


if __name__ == "__main__":
    print(json.dumps(output_digests()))
