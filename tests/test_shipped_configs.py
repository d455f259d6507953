"""Every shipped config must still parse with the CLI.

Nothing else in the fast suite reads ``configs/*.cfg``, so a renamed or
removed flag would otherwise break a shipped config silently.  Each config
is parsed exactly as ``python -m barrierchain.cli STEM --config PATH`` parses
it, without running the experiment."""

from pathlib import Path

import pytest

from barrierchain.cli import _parse_args, build_parser

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def test_configs_are_shipped():
    assert len(CONFIGS) >= 11


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_parses(path):
    args = _parse_args(build_parser(), [path.stem, "--config", str(path)])
    assert args.experiment == path.stem
    assert args.config == str(path)
