"""Package hygiene: public names resolve and are used, and no module carries a dead import."""

import ast
import functools
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import frontks
from frontks import (
    EquationDescriptor,
    RescaledSymbolTable,
    SolverConfig,
    SpectralField,
    SymbolTable,
    Trajectory,
    build_rescaled_symbols,
    build_symbols,
    cosine_field,
    make_grid,
    make_ks_equation,
)

PACKAGE_DIR = pathlib.Path(frontks.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(frontks.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"frontks.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is used by being exported
        if _is_all_assignment(node):
            used.update(ast.literal_eval(node.value))
    return used


# __init__ is left out: its imports are the package's public names
@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    # an installed test extra such as mpmath would hide a stray import from a plain import test
    tree = ast.parse(path.read_text())
    roots = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    roots |= {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert sorted(roots - sys.stdlib_module_names - {"numpy"}) == []


def _program_references() -> set[str]:
    """Names the program reads, by name, attribute or string (perfbench patches by
    string), across src/, scripts/ and perfbench/; definitions, imports and
    __all__ entries are not references."""
    refs = set()
    for path in [p for d in ("src", "scripts", "perfbench") for p in (REPO / d).rglob("*.py")]:
        tree = ast.parse(path.read_text())
        skipped = {id(n) for node in tree.body if _is_all_assignment(node) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller():
    refs = _program_references()
    dead = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(f"frontks.{name}"), "__all__", [])
        if n not in refs
    ]
    assert dead == []


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports frontks from this checkout; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_the_profile_audit_loads_on_first_use(tmp_path):
    # a fresh interpreter, as this session has imported frontks.profiles already;
    # the package has no hook for it: the code that reaches it imports it by name
    code = f"""
import sys
import frontks, frontks.cli
from frontks.cli import main
assert "frontks.profiles" not in sys.modules
evolve = ["--ell0", "6.283185307179586", "--epsilon", "0.5", "--n-modes", "8", "--t-end", "0.1", "--dt", "0.05"]
assert main(["evolve-rescaled", *evolve, "--out", {str(tmp_path / "evolve")!r}]) == 0
assert "frontks.profiles" not in sys.modules
old = ("FrontModeData", "ProfileCoefficients", "ProfileSlice", "front_time_derivative",
       "jump_residuals", "reconstruct_profile")
assert [n for n in old if hasattr(frontks, n)] == []
try:
    frontks.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("frontks.no_such_name resolved")
profile = ["--ell", "6.283185307179586", "--alpha", "1", "--k", "1", "--phi", "1"]
assert main(["profiles", *profile, "--out", {str(tmp_path / "profile")!r}]) == 0
assert "frontks.profiles" in sys.modules and "frontks.experiments" not in sys.modules
"""
    _run_fresh(code)


def test_the_report_studies_load_on_first_use(tmp_path):
    # a fresh interpreter, as this session has imported frontks.experiments already
    code = f"""
import sys
import frontks, frontks.cli
from frontks.cli import main
assert "frontks.experiments" not in sys.modules
evolve = ["--ell0", "6.283185307179586", "--epsilon", "0.5", "--n-modes", "8", "--t-end", "0.1", "--dt", "0.05"]
assert main(["evolve-rescaled", *evolve, "--out", {str(tmp_path / "evolve")!r}]) == 0
assert "frontks.experiments" not in sys.modules
scan = ["--ell", "6.283185307179586", "--n-modes", "8", "--alphas", "1", "--t-end", "0.1", "--dt", "0.05"]
assert main(["stability-scan", *scan, "--out", {str(tmp_path / "scan")!r}]) == 0
assert "frontks.experiments" in sys.modules
calls = []

def wrapper(*args, _run=frontks.experiments.run_stability_scan):
    calls.append(args)
    return _run(*args)

frontks.experiments.run_stability_scan = wrapper
assert main(["stability-scan", *scan, "--out", {str(tmp_path / "scan")!r}]) == 0
assert len(calls) == 1
"""
    _run_fresh(code)


def test_the_csv_formatting_tables_are_built_on_first_use(tmp_path):
    # a fresh interpreter, as this session has written CSVs already
    code = f"""
import frontks.cli as cli
assert cli._pow10.cache_info().currsize == 0
assert cli._field_tables.cache_info().currsize == 0
cli.write_csv({str(tmp_path / "t.csv")!r}, ["a", "b"], [[k, k / 3] for k in range(cli._MIN_BLOCK_VALUES)])
assert cli._pow10.cache_info().currsize > 0
assert cli._field_tables.cache_info().currsize == 1
"""
    _run_fresh(code)


def test_random_initial_fields_leave_numpys_generator_unloaded(tmp_path):
    # a fresh interpreter, as this session has imported numpy.random already;
    # numpy.random pulls in secrets, hmac and OpenSSL (_hashlib) as it loads
    code = f"""
import sys
from frontks.cli import main
rng = ("numpy.random", "secrets", "_hashlib")
assert [m for m in rng if m in sys.modules] == []
scan = ["--ell", "6.283185307179586", "--n-modes", "8", "--alphas", "1", "--t-end", "0.1", "--dt", "0.05"]
assert main(["stability-scan", *scan, "--out", {str(tmp_path / "scan")!r}]) == 0
evolve = ["--ell0", "6.283185307179586", "--epsilon", "0.5", "--n-modes", "8", "--t-end", "0.1", "--dt", "0.05"]
assert main(["evolve-rescaled", *evolve, "--ic", "random", "--out", {str(tmp_path / "evolve")!r}]) == 0
assert [m for m in rng if m in sys.modules] == []
"""
    _run_fresh(code)


def test_the_evolve_function_shadows_its_submodule():
    import frontks.evolve as ev  # binds the re-exported function, not the module

    module = sys.modules["frontks.evolve"]
    assert ev is frontks.evolve is module.evolve and not hasattr(ev, "Etdrk4")
    from frontks.evolve import MATRIX_MAX_MODES, Etdrk4

    assert (Etdrk4, MATRIX_MAX_MODES) == (module.Etdrk4, module.MATRIX_MAX_MODES)


def _records():
    """Every dataclass the package defines, the lazily loaded modules' included."""
    return [
        cls
        for name in MODULES
        for cls in vars(importlib.import_module(f"frontks.{name}")).values()
        if is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == f"frontks.{name}"
    ]


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_every_record_has_a_docstring_of_its_own(cls):
    # without one, dataclass writes Name(field: type, ...) through inspect.signature as the class is built
    generated = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    assert cls.__doc__ and cls.__doc__ != generated


# a record is frozen only when its constructor checks or derives its fields, or a frozen
# record's check reads it (SolverConfig's grid check reads the descriptor's grid); the
# rest are plain, which builds two methods per class at import instead of four or six
FROZEN_RECORDS = {
    "grid.SpectralGrid", "grid.SpectralField", "evolve.EquationDescriptor", "evolve.SolverConfig",
    "profiles.FrontModeData",
}
VALUE_RECORDS = {"grid.SpectralGrid", "profiles.FrontModeData"}


def test_a_record_is_frozen_only_when_a_constructor_check_relies_on_it():
    params = {f"{cls.__module__.split('.')[-1]}.{cls.__name__}": cls.__dataclass_params__ for cls in _records()}
    assert {name for name, p in params.items() if p.frozen} == FROZEN_RECORDS
    # every other record compares by identity
    assert {name for name, p in params.items() if p.eq} == VALUE_RECORDS


def _array_records():
    """One factory per record type that holds arrays, directly or through a field."""
    from frontks import experiments, profiles

    grid = make_grid(1.0, 8)

    def config():
        return SolverConfig(make_ks_equation(grid), cosine_field(grid, 0.1), dt=0.1, t_end=0.1)

    def report(cls):
        fill = {"np.ndarray": lambda: np.zeros(2), "list": list}
        return cls(**{f.name: next((v() for k, v in fill.items() if k in f.type), 0.0) for f in fields(cls)})

    phi_t = profiles.front_time_derivative(1.0, 1.0, 1.0, 0.0)
    data = profiles.FrontModeData(lambda_k=1.0, alpha=1.0, phi=1.0, phi_t=phi_t, phiy_sq=0.0)
    factories = {
        SpectralField: lambda: SpectralField(grid, np.zeros(8)),
        EquationDescriptor: lambda: make_ks_equation(grid),
        SolverConfig: config,
        Trajectory: lambda: Trajectory(make_ks_equation(grid), np.zeros(1), np.zeros((1, 8))),
        SymbolTable: lambda: build_symbols(1.0, grid),
        RescaledSymbolTable: lambda: build_rescaled_symbols(0.5, grid),
        profiles.ProfileSlice: lambda: profiles.reconstruct_profile(data, np.linspace(-1.0, 1.0, 5)),
    }
    for name in ("StabilityScanReport", "ConvergenceReport", "EnergyTrace", "KsAprioriReport", "GalerkinReport"):
        cls = getattr(experiments, name)
        factories[cls] = functools.partial(report, cls)
    return factories


ARRAY_RECORDS = _array_records()


@pytest.mark.parametrize("cls", list(ARRAY_RECORDS), ids=lambda cls: cls.__name__)
def test_records_that_hold_arrays_compare_by_identity(cls):
    # a generated __eq__ would ask an array for its truth value and raise
    a, b = ARRAY_RECORDS[cls](), ARRAY_RECORDS[cls]()
    assert type(a) is cls
    assert (a == b) is False
    assert a == a
    assert len({a, b}) == 2


def test_studies_compare_by_identity():
    # a study's optional defaults are a dict, so a generated __hash__ could only raise
    from frontks.cli import STUDIES, Study

    study = STUDIES["symbols"]
    a, b = (Study(study.required, study.optional, study.run) for _ in range(2))
    assert a != b and a == a
    assert len({a, b}) == 2


def test_grids_keep_value_equality():
    assert make_grid(1.0, 8) == make_grid(1.0, 8)
    assert hash(make_grid(1.0, 8)) == hash(make_grid(1.0, 8))
    assert make_grid(1.0, 8) != make_grid(2.0, 8)
