import dataclasses

import pytest

from curbmap import PipelineConfig, default_config_text, parse_config, write_config
from curbmap.cloud import CropBox
from curbmap.config import parse_crop
from curbmap.curb import CurbParams
from curbmap.voting import VotingParams


class TestRoundTrip:
    def test_defaults(self):
        config = PipelineConfig()
        assert parse_config(write_config(config)) == config

    def test_custom_values(self):
        config = PipelineConfig(
            input_path="street.xyz",
            input_format="pcd",
            crop=CropBox((-10.0, -10.0, -1.0), (10.0, 10.0, 1.0)),
            voting=VotingParams(sigma=0.25, cutoff=0.7, include_self=False),
            curb=CurbParams(plate_threshold=0.35, outlier_min_neighbors=5),
            threads=4,
            out_grid="map.sgrd",
        )
        assert parse_config(write_config(config)) == config

    def test_template_reproduces_defaults(self):
        parsed = parse_config(default_config_text())
        assert parsed == PipelineConfig()

    def test_template_documents_every_section(self):
        text = default_config_text()
        for section in ("[cloud]", "[voting]", "[dem]", "[curb]", "[semantic]", "[run]"):
            assert section in text


class TestPartialFiles:
    def test_missing_sections_keep_defaults(self):
        config = parse_config("[voting]\nsigma = 0.5\n")
        assert config.voting.sigma == 0.5
        assert config.ground == PipelineConfig().ground
        assert config.threads == 1

    def test_blank_cutoff_recomputed_from_sigma(self):
        config = parse_config("[voting]\nsigma = 0.4\ncutoff =\n")
        assert abs(config.voting.cutoff - 0.4 * 2.6282608848784663) < 1e-12

    def test_bool_parsing(self):
        assert parse_config("[voting]\ninclude_self = true\n").voting.include_self
        assert not parse_config("[voting]\ninclude_self = false\n").voting.include_self

    @pytest.mark.parametrize("section, key, text", [
        ("voting", "include_self", "ture"),
        ("voting", "include_self", "2"),
        ("voting", "include_self", "y"),
        ("voting", "sigma", "abc"),
        ("run", "threads", "two"),
        ("curb", "outlier_min_neighbors", "3.5"),
    ])
    def test_bad_value_names_section_and_key(self, section, key, text):
        with pytest.raises(ValueError, match=rf"\[{section}\] {key}: .*'{text}'"):
            parse_config(f"[{section}]\n{key} = {text}\n")


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
