"""Exact reflectionless soliton and breather solutions on a nonzero
background, with independent numerical verification."""

from importlib import resources

__version__ = "0.1.0"


def preset_dir():
    return resources.files("kundunls").joinpath("presets")


def preset_names():
    return sorted(p.name[:-5] for p in preset_dir().iterdir()
                  if p.name.endswith(".json"))
