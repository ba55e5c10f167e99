"""Road curb detection in dense LiDAR clouds via sparse tensor voting.

The pipeline: parse or generate a point cloud, accumulate ball votes
over neighbors, eigendecompose the per-point tensors into stick, plate
and ball saliencies, estimate ground height on a two-stage DEM, select
curb points by plate saliency plus height gating plus outlier removal,
and project everything into a semantic occupancy grid.
"""

from .cloud import CropBox, ParseSummary, PointCloud, crop, parse_cloud, write_cloud
from .config import PipelineConfig, default_config_text, parse_config
from .curb import (CurbDetection, CurbParams, detect_curbs, height_gate,
                   outlier_removal, plate_candidates)
from .dem import (DemGrid, GroundParams, build_height_grid,
                  extract_ground_candidates, ground_heights, ground_model,
                  refine_dem, to_ascii_grid)
from .errors import (ChannelMissingError, CurbmapError, EmptyInputError,
                     FormatError, FrameMismatchError, ParseError, PipelineError)
from .neighbors import UniformGridIndex, build_index, radius_neighbors
from .pipeline import PipelineResult, TimingReport, run_pipeline
from .scene import SceneSpec, generate_scene, truth_grid
from .semantic import (ClassifyParams, LABEL_COLORS, SemanticGrid, SemanticLabel,
                       TRAVERSABILITY, classify_cells, read_compact, render_raster,
                       write_compact)
from .voting import (VotingParams, attach_saliencies, decay, decompose_batch,
                     saliencies, saliency_field, sparse_vote)

__version__ = "0.1.0"
