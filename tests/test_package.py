"""The package namespace: each public name resolves lazily to its module's object."""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import logriesz


def _fresh(script):
    package_root = os.path.dirname(os.path.dirname(logriesz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True)


def test_import_loads_no_submodule_and_no_numpy():
    proc = _fresh("""
        import sys
        import logriesz
        loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("logriesz."))
        assert loaded == [], loaded
    """)
    assert proc.returncode == 0, proc.stderr


def test_probes_loads_no_numpy_polynomial():
    """The bump's Taylor polynomials are coefficient arrays evaluated by np.polyval."""
    proc = _fresh("""
        import sys
        import logriesz.probes
        assert "numpy.polynomial" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_each_public_name_is_its_modules_object():
    for module, names in logriesz._EXPORTS.items():
        owner = importlib.import_module(f"logriesz.{module}")
        assert getattr(logriesz, module) is owner
        for name in names:
            assert getattr(logriesz, name) is getattr(owner, name), name
    assert logriesz.__version__ == "0.1.0"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from logriesz import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(logriesz.__all__)
    assert "unit_sphere_area" in logriesz.__all__
    assert len(logriesz.__all__) == len(set(logriesz.__all__)) == 74
    assert dir(logriesz) == sorted(logriesz.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        logriesz.no_such_name


def test_submodules_resolve_from_the_package():
    proc = _fresh("""
        import logriesz
        from logriesz import cli
        assert cli.main is logriesz.cli.main
        assert logriesz.convolution.convolve_radial is logriesz.convolve_radial
    """)
    assert proc.returncode == 0, proc.stderr


# the names the benchmark's tracer patches or its workloads call (ROADMAP, standing constraints)
BENCHMARK_NAMES = {
    "convolution": ("convolve_radial", "angular_factor", "ball_profile", "power_profile", "unit_sphere_area"),
    "ansatz": ("convolve_radial", "newtonian_potential_radial", "PotentialTable", "lambda_star",
               "verify_supersolution", "choose_case_params", "u_eval"),
    "classifier": ("classify", "emit_regime_table"),
}


@pytest.mark.parametrize("module", sorted(BENCHMARK_NAMES))
def test_names_the_benchmark_patches_still_resolve(module):
    """A refactor that renames one of them breaks perfbench, which the suite does not import."""
    mod = importlib.import_module(f"logriesz.{module}")
    for name in BENCHMARK_NAMES[module]:
        assert callable(getattr(mod, name)), f"{module}.{name}"
    if module == "convolution":
        assert callable(mod.integrate.quad)
    if module == "ansatz":
        assert isinstance(mod.PotentialTable, type) and "__call__" in vars(mod.PotentialTable)
