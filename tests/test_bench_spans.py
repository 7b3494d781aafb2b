"""The benchmark tracer's hooks name functions that exist, so renaming one
fails here rather than in a traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from atomspa.field import PrimeField

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_spanned_attributes_exist_and_are_callable():
    missing = [f"{mod.__name__}.{attr}" for mod, attr in _load_spans().SPANNED
               if not callable(getattr(mod, attr, None))]
    assert not missing


def test_field_ops_are_prime_field_methods():
    missing = [op for op in _load_spans().FIELD_OPS
               if not inspect.isfunction(vars(PrimeField).get(op))]
    assert not missing
