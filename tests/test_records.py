"""Value types: every record's equality, hash, repr, immutability and
``replace``, and that no module builds its classes with ``dataclasses``."""

import ast
import importlib
import math
import pickle
import pkgutil
from pathlib import Path

import pytest

import nvecho
from nvecho.config import ScenarioConfig
from nvecho.estimator import FitResult
from nvecho.noise import Distribution, MonteCarloResult, NoiseSource
from nvecho.pulses import PulseSequence, Segment
from nvecho.records import Frozen, Record
from nvecho.response import LinearResponse, QuasiharmonicResponse, QuasiharmonicSet
from nvecho.scenarios import ScenarioResult, _Context
from nvecho.sequences import EnsembleSignal, RateRow, RateTable, SimulationResult
from nvecho.spin_model import PhaseCoefficients, SpinSystemParams

SRC = Path(nvecho.__file__).parent

CURVE = QuasiharmonicResponse(2.0, 3.0, 300.0)

# (a record, a valid change that makes it differ, a change its constructor
# refuses or None where it checks nothing, whether it is frozen, whether it
# hashes, its repr)
CASES = [
    (ScenarioConfig("a", "simulate"), {"name": "b"}, None, True, False,
     "ScenarioConfig(name='a', pipeline='simulate', description='', spin={}, "
     "response={'model': 'linear'}, sources=(), sequence={}, "
     "backend={'samples': 1048576, 'seed': 12345}, output={'directory': '.'}, base_dir=None)"),
    (FitResult({"a": 1.0}, [[1.0]], 0.5, 3), {"points_used": 4}, {"residual_norm": -1.0},
     True, False,
     "FitResult(parameters={'a': 1.0}, covariance=[[1.0]], residual_norm=0.5, points_used=3, "
     "warnings=(), settings={})"),
    (Distribution("gaussian", 1.0, 2.0), {"scale": 3.0}, {"scale": -1.0}, True, True,
     "Distribution(kind='gaussian', location=1.0, scale=2.0)"),
    (NoiseSource("field", Distribution("delta"), slopes=(0.0, 0.0, 1.0)), {"name": "other"},
     {"slopes": (0.0, math.nan, 1.0)}, True, True,
     "NoiseSource(name='field', distribution=Distribution(kind='delta', location=0.0, "
     "scale=0.0), slopes=(0.0, 0.0, 1.0), curves=None)"),
    (MonteCarloResult([1.0], [0.1], 4, 5, 4), {"seed": 6}, None, True, False,
     "MonteCarloResult(attenuation=[1.0], std_error=[0.1], n_samples=4, seed=5, n_retained=4, "
     "truncated_mass={})"),
    (Segment(1e-3, 0), {"sign": -1}, {"m_S": 2}, True, True,
     "Segment(duration=0.001, m_S=0, sign=1)"),
    (PulseSequence((0, -1), (Segment(1e-3, 0),)), {"pair": (1, 0)}, {"segments": ()}, True,
     True, "PulseSequence(pair=(0, -1), segments=(Segment(duration=0.001, m_S=0, sign=1),))"),
    (LinearResponse(1.0, 2.0, 3.0, 4.0), {"hyperfine_per_K": 5.0},
     {"quadrupole_per_K": math.nan}, True, True,
     "LinearResponse(quadrupole_per_K=1.0, hyperfine_per_K=2.0, quadrupole_per_strain=3.0, "
     "hyperfine_per_strain=4.0)"),
    (CURVE, {"weight": 4.0}, {"omega": -1.0}, True, True,
     "QuasiharmonicResponse(omega=2.0, weight=3.0, reference_T=300.0)"),
    (QuasiharmonicSet(CURVE, CURVE, CURVE, 1.0, 2.0), {"quadrupole_per_strain": 5.0},
     {"hyperfine_per_strain": math.inf}, True, True,
     "QuasiharmonicSet(quadrupole=QuasiharmonicResponse(omega=2.0, weight=3.0, "
     "reference_T=300.0), hyperfine=QuasiharmonicResponse(omega=2.0, weight=3.0, "
     "reference_T=300.0), zfs=QuasiharmonicResponse(omega=2.0, weight=3.0, reference_T=300.0), "
     "quadrupole_per_strain=1.0, hyperfine_per_strain=2.0)"),
    (ScenarioResult("n", "simulate", "s", {}, ()), {"summary": "t"}, None, False, False,
     "ScenarioResult(name='n', pipeline='simulate', summary='s', numbers={}, artifacts=(), "
     "signals={}, fits={})"),
    (_Context(None, Path("out"), True, (), {}), {"deterministic": False}, None, False, False,
     "_Context(config=None, out_dir=PosixPath('out'), deterministic=True, sources=(), "
     "keywords={}, artifacts=[], signals={}, fits={}, numbers={}, fragments=[])"),
    (SimulationResult([1.0], [0.0]), {"base_phase": [1.0]}, None, True, False,
     "SimulationResult(attenuation=[1.0], base_phase=[0.0], monte_carlo=None)"),
    (EnsembleSignal([1.0], [2.0], "x", "y"), {"y_label": "z"}, None, False, False,
     "EnsembleSignal(x=[1.0], y=[2.0], x_label='x', y_label='y', metadata={}, "
     "monte_carlo=None)"),
    (RateRow((0, -1), (0, 1), 0.5, 3.0), {"rate": 4.0}, {"rate": -1.0}, True, True,
     "RateRow(pair=(0, -1), ms_pairing=(0, 1), tau_over_t=0.5, rate=3.0, rate_error=None)"),
    (RateTable(), {"metadata": {"a": 1}}, None, False, False, "RateTable(rows=[], metadata={})"),
    (SpinSystemParams(-3e7, -1e7, -2000.0, 239.0), {"field_gauss": 100.0},
     {"field_gauss": -1.0}, True, True,
     "SpinSystemParams(quadrupole=-30000000.0, hyperfine=-10000000.0, gamma_n=-2000.0, "
     "field_gauss=239.0)"),
    (PhaseCoefficients(1.0, 2.0, 3.0), {"field": 4.0}, None, True, True,
     "PhaseCoefficients(quadrupole=1.0, hyperfine=2.0, field=3.0)"),
]
IDS = [type(case[0]).__name__ for case in CASES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_holds_every_record_of_the_package():
    for module in pkgutil.iter_modules([str(SRC)]):
        importlib.import_module(f"nvecho.{module.name}")
    records = {cls for cls in _subclasses(Record)
               if cls.__module__.startswith("nvecho.") and cls is not Frozen}
    assert records == {type(case[0]) for case in CASES}
    assert len(records) == 18
    assert sum(issubclass(cls, Frozen) for cls in records) == 14


@pytest.mark.parametrize("record, change, bad, frozen, hashes, text", CASES, ids=IDS)
def test_a_record_equals_its_copy_and_no_other(record, change, bad, frozen, hashes, text):
    copy = record.replace()
    assert copy == record and copy is not record
    assert not copy != record
    assert record.replace(**change) != record
    # a value of another class is not equal, even holding the same fields
    assert record != tuple(getattr(record, name) for name in record._fields)
    assert pickle.loads(pickle.dumps(record)) == record
    if hashes:
        assert hash(copy) == hash(record)
        assert len({record, copy, record.replace(**change)}) == 2
    else:  # a mutable record, or one holding a dict or a list, as a dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("record, change, bad, frozen, hashes, text", CASES, ids=IDS)
def test_a_record_prints_its_fields_in_order(record, change, bad, frozen, hashes, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, change, bad, frozen, hashes, text", CASES, ids=IDS)
def test_a_frozen_record_refuses_to_change(record, change, bad, frozen, hashes, text):
    assert isinstance(record, Frozen) == frozen
    [(name, value)] = change.items()
    if not frozen:
        changed = record.replace()
        setattr(changed, name, value)
        assert changed == record.replace(**change)
        return
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert getattr(record, name) != value


@pytest.mark.parametrize("record, change, bad, frozen, hashes, text",
                         [case for case in CASES if case[2] is not None],
                         ids=[i for i, case in zip(IDS, CASES) if case[2] is not None])
def test_replace_goes_through_the_check(record, change, bad, frozen, hashes, text):
    with pytest.raises(ValueError) as replaced:
        record.replace(**bad)
    with pytest.raises(ValueError) as built:
        type(record)(**{field: getattr(record, field) for field in record._fields} | bad)
    assert str(replaced.value) == str(built.value)


def test_a_record_takes_each_field_once():
    with pytest.raises(TypeError, match="missing argument"):
        Distribution()
    with pytest.raises(TypeError, match="takes 3 arguments but 4 were given"):
        Distribution("delta", 0.0, 0.0, 0.0)
    with pytest.raises(TypeError, match="multiple values for argument 'kind'"):
        Distribution("delta", kind="delta")
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        Distribution("delta", width=1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        CURVE.replace(size=1.0)
    assert Distribution(scale=1.0, kind="gaussian") == Distribution("gaussian", 0.0, 1.0)


def test_default_dicts_and_lists_are_each_records_own():
    first, second = ScenarioConfig("a", "simulate"), ScenarioConfig("a", "simulate")
    for name in ("spin", "response", "sequence", "backend", "output"):
        assert getattr(first, name) is not getattr(second, name)
    first.backend["seed"] = 1
    assert second.backend["seed"] == ScenarioConfig("b", "simulate").backend["seed"] == 12345
    tables = RateTable(), RateTable()
    tables[0].rows.append(None)
    assert tables[1].rows == [] and RateTable().rows == []


def test_base_dir_is_left_out_of_equality():
    config = ScenarioConfig("a", "simulate", base_dir=Path("here"))
    moved = config.replace(base_dir=Path("elsewhere"))
    assert moved == config and moved.base_dir == Path("elsewhere")
    assert config.replace(name="b") != config


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "dataclasses" not in {name.split(".")[0] for name in _imported_modules(tree)}


def test_records_generate_no_code():
    tree = ast.parse((SRC / "records.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}
