"""The attributes the benchmark's tracer patches must exist.

``perfbench/tracer.py`` wraps package functions by (owner, attribute)
name.  A rename in the package would only surface when a traced
benchmark run fails, so this reads the tracer's tables (without
installing it) and checks every pair here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from plurigenera import fibre_local
from plurigenera.congruence import QuasiLinearForm

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "owner, attr, layer",
    tracer.FUNCTIONS,
    ids=[f"{layer}:{attr}" for _, attr, layer in tracer.FUNCTIONS],
)
def test_wrapped_function_exists(owner, attr, layer):
    # the tracer reads owner.__dict__[attr], so inherited attributes do not count
    assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} ({layer})"


@pytest.mark.parametrize(
    "owner, attr, layer",
    tracer.GENERATORS,
    ids=[layer for _, _, layer in tracer.GENERATORS],
)
def test_wrapped_generator_exists(owner, attr, layer):
    generator = vars(owner).get(attr)
    assert inspect.isgeneratorfunction(generator), f"{owner.__name__}.{attr} ({layer})"


def test_form_value_exists():
    # patched apart from the tables, to count the scan window of eventually_at_least
    assert callable(vars(QuasiLinearForm).get("value"))


def test_torsion_length_cache_info_exists():
    # read on every traced run for fibre_local.achievable_torsion_lengths.hit_ratio
    assert callable(getattr(fibre_local.achievable_torsion_lengths, "cache_info", None))
