import dataclasses

import pytest

from curbmap import PipelineConfig, default_config_text, parse_config
from curbmap.cli import _build_parser, _merge_config
from curbmap.cloud import CropBox
from curbmap.config import config_sections, parse_crop
from curbmap.curb import CurbParams
from curbmap.voting import CUTOFF_SIGMAS, VotingParams


class TestRoundTrip:
    def test_defaults(self):
        # every value kind written as its default, blank where the default is blank
        text = """[cloud]
input =
format = xyz
crop =
[voting]
sigma = 0.3
cutoff =
[curb]
plate_threshold = 0.3
outlier_min_neighbors = 3
[run]
threads = 1
out_grid =
"""
        assert parse_config(text) == PipelineConfig()

    def test_custom_values(self):
        text = """[cloud]
input = street.xyz
format = pcd
crop = -10, -10, -1, 10, 10, 1
[voting]
sigma = 0.25
cutoff =
[curb]
plate_threshold = 0.35
outlier_min_neighbors = 5
[run]
threads = 4
out_grid = map.sgrd
"""
        assert parse_config(text) == PipelineConfig(
            input_path="street.xyz",
            input_format="pcd",
            crop=CropBox((-10.0, -10.0, -1.0), (10.0, 10.0, 1.0)),
            voting=VotingParams(sigma=0.25, cutoff=0.25 * CUTOFF_SIGMAS),
            curb=CurbParams(plate_threshold=0.35, outlier_min_neighbors=5),
            threads=4,
            out_grid="map.sgrd",
        )

    def test_template_reproduces_defaults(self):
        parsed = parse_config(default_config_text())
        assert parsed == PipelineConfig()

    def test_template_cutoff_follows_sigma(self):
        # the template leaves cutoff blank, so it follows an overridden sigma
        config = parse_config(default_config_text(), {"voting": {"sigma": "0.4"}})
        assert config.voting.cutoff == 0.4 * CUTOFF_SIGMAS

    def test_template_documents_every_section(self):
        text = default_config_text()
        for section in ("[cloud]", "[voting]", "[dem]", "[curb]", "[semantic]", "[run]"):
            assert section in text
        sections = {section: keys for section, _, _, keys in config_sections(PipelineConfig())}
        assert sum(map(len, sections.values())) == 27
        for section, keys in sections.items():
            block = text.split(f"[{section}]\n")[1].split("\n[")[0]
            for key in keys:
                assert f"\n{key} =" in f"\n{block}", f"[{section}] {key}"

    def test_voting_keys_are_sigma_and_cutoff(self):
        assert [f.name for f in dataclasses.fields(VotingParams)] == ["sigma", "cutoff"]


class TestPartialFiles:
    def test_missing_sections_keep_defaults(self):
        config = parse_config("[voting]\nsigma = 0.5\n")
        assert config.voting.sigma == 0.5
        assert config.ground == PipelineConfig().ground
        assert config.threads == 1

    def test_blank_cutoff_recomputed_from_sigma(self):
        config = parse_config("[voting]\nsigma = 0.4\ncutoff =\n")
        assert abs(config.voting.cutoff - 0.4 * 2.6282608848784663) < 1e-12

    @pytest.mark.parametrize("section, key, text", [
        ("voting", "sigma", "abc"),
        ("run", "threads", "two"),
        ("curb", "outlier_min_neighbors", "3.5"),
        ("cloud", "format", "ply"),
    ])
    def test_bad_value_names_section_and_key(self, section, key, text):
        with pytest.raises(ValueError, match=rf"\[{section}\] {key}: .*'{text}'"):
            parse_config(f"[{section}]\n{key} = {text}\n")

    @pytest.mark.parametrize("section, key", [
        ("voting", "sigma"), ("voting", "cutoff"), ("curb", "outlier_radius"),
        ("dem", "height_cell"), ("dem", "refined_cell"), ("dem", "coarse_cell"),
        ("semantic", "cell"),
    ])
    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_nonfinite_size_rejected(self, section, key, text):
        # a radius or cell size sets an index or a grid, which an
        # infinite one would give NaN cell counts
        with pytest.raises(ValueError, match=rf"{key} must be positive and finite"):
            parse_config(f"[{section}]\n{key} = {text}\n")

    def test_format_any_case(self):
        assert parse_config("[cloud]\nformat = PCD\n").input_format == "PCD"

    @pytest.mark.parametrize("text, name", [
        ("[dme]\nheight_cell = 0.5\n", r"\[dme\]"),
        ("[voting]\nsigmaa = 0.5\n", r"\[voting\] sigmaa"),
        ("[cloud]\ninput_path = a.xyz\n", r"\[cloud\] input_path"),
        ("[DEFAULT]\nsigma = 0.5\n", r"\[DEFAULT\]"),
        # every point keeps its unit ball; the switch is gone
        ("[voting]\ninclude_self = false\n", r"\[voting\] include_self: unknown key"),
    ])
    def test_unknown_section_or_key_named(self, text, name):
        with pytest.raises(ValueError, match=name):
            parse_config(text)


class TestOverrides:
    """Single-key overrides, as the CLI applies its flags."""

    def test_explicit_cutoff_kept_under_sigma_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[voting]\ncutoff = 0.7\n")
        args = _build_parser().parse_args(["--config", str(cfg), "--sigma", "0.25"])
        assert _merge_config(args).voting == VotingParams(sigma=0.25, cutoff=0.7)

    @pytest.mark.parametrize("text", ["", "[voting]\n", "[voting]\ncutoff =\n"])
    def test_absent_or_blank_cutoff_follows_sigma_flag(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        args = _build_parser().parse_args(["--config", str(cfg), "--sigma", "0.25"])
        assert _merge_config(args).voting.cutoff == 0.25 * CUTOFF_SIGMAS

    def test_override_replaces_single_key(self):
        config = parse_config("[run]\nthreads = 3\nout_grid = a.sgrd\n",
                              {"run": {"threads": "2"}})
        assert (config.threads, config.out_grid) == (2, "a.sgrd")


class TestParseCrop:
    def test_six_numbers(self):
        box = parse_crop("-1,-2,-3,4,5,6")
        assert box == CropBox((-1.0, -2.0, -3.0), (4.0, 5.0, 6.0))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_crop("1,2,3")

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            parse_crop("1,0,0,0,1,1")


class TestConfigIsFrozen:
    def test_replace_works(self):
        config = PipelineConfig()
        other = dataclasses.replace(config, threads=8)
        assert other.threads == 8 and config.threads == 1
