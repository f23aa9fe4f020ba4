"""Radon-Hurwitz admissibility against the classical formula's special
values and the grey pattern of the reference tables."""

from __future__ import annotations

import importlib
import itertools
import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pleijel
from pleijel import reference
from pleijel.admissibility import admissible, radon_hurwitz, shading_mask
from pleijel.checks import CheckResult
from pleijel.cells import Ratio, _compute_cell
from pleijel.constants import weyl_interval
from pleijel.core import DimPair, InadmissiblePair
from pleijel.htype_algebra import GroupElement, SignedPermutation, construct
from pleijel.monotonicity import InequalityReport
from pleijel.oracles import Polynomial
from pleijel.render import TableSpec
from pleijel.series import SeriesValue, c_series

#: one instance of each of the package's value types (named tuples)
_VALUE_TYPES = {
    "DimPair": lambda: DimPair(2, 1),
    "Enclosure": lambda: weyl_interval((2, 1)),
    "Ratio": lambda: _compute_cell("gamma_bar", 4, 2, 4, 1e-8).exact,
    "SignedPermutation": lambda: SignedPermutation.identity(4),
    "SeriesValue": lambda: c_series((2, 1)),
    "AdmissibilityVerdict": lambda: admissible((2, 1)),
    "CheckResult": lambda: CheckResult("tables", True, ()),
    "InequalityReport": lambda: InequalityReport("phi", "n <= 2", 0.5, 1.0, True),
    "TableSpec": lambda: TableSpec("gamma_tilde"),
    "Cell": lambda: _compute_cell("gamma_bar", 4, 2, 4, 1e-8),
    "HTypeStructure": lambda: construct((2, 3)),
    "GroupElement": lambda: GroupElement((0, 0, 0, 0), (0, 0, 0)),
}


#: the library modules whose ``__all__`` the package re-exports, in order
_LIBRARY_MODULES = ("core", "admissibility", "numerics", "series", "constants", "sobolev",
                    "exceptional", "monotonicity", "htype_algebra", "oracles")


class TestRadonHurwitz:
    def test_power_of_two_ladder(self):
        # N = 2^(4a+b) odd -> 8a + 2^b
        expected = {1: 1, 2: 2, 4: 4, 8: 8, 16: 9, 32: 10, 64: 12, 128: 16, 256: 17}
        for N, want in expected.items():
            assert radon_hurwitz(N) == want

    def test_quoted_values(self):
        assert radon_hurwitz(2) == 2  # n = 1 admits only m = 1
        assert radon_hurwitz(4) == 4  # n = 2 admits m <= 3
        assert radon_hurwitz(16) == 9  # n = 8 admits m <= 8

    def test_odd_is_one(self):
        for N in range(1, 1025, 2):
            assert radon_hurwitz(N) == 1

    def test_depends_only_on_two_adic_part(self):
        for N in range(1, 1025):
            assert radon_hurwitz(N) == radon_hurwitz(N & -N)

    def test_domain(self):
        with pytest.raises(ValueError):
            radon_hurwitz(0)


class TestAdmissible:
    def test_quoted_special_cases(self):
        assert admissible((1, 1)).admissible and not admissible((1, 2)).admissible
        assert admissible((3, 1)).admissible and not admissible((3, 2)).admissible
        assert admissible((2, 3)).admissible and not admissible((2, 4)).admissible
        assert admissible((4, 7)).admissible and not admissible((4, 8)).admissible

    def test_verdict_fields(self):
        v = admissible((4, 5))
        assert v.rho_2n == radon_hurwitz(8) == 8
        assert v.max_m == 7
        assert v.admissible == (v.pair.m <= v.max_m)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=24))
    def test_monotone_truncation(self, n, m):
        # admissible at m implies admissible at every smaller centre dimension
        if admissible((n, m)).admissible:
            assert all(admissible((n, mm)).admissible for mm in range(1, m))

    def test_m_equals_one_always_admissible(self):
        for n in range(1, 65):
            assert admissible((n, 1)).admissible


class TestShadingMask:
    def test_matches_reference_pattern(self):
        mask = shading_mask(10, 10)
        for n, m in itertools.product(range(1, 11), range(1, 11)):
            printed_admissible = (n, m) not in reference.INADMISSIBLE_PRINTED
            assert mask[n - 1][m - 1] == printed_admissible, (n, m)

    def test_row_structure(self):
        mask = shading_mask(10, 10)
        assert mask[0] == [True] + [False] * 9  # n = 1: only m = 1
        per_row_max_m = [sum(row) for row in mask]
        assert per_row_max_m == [1, 3, 1, 7, 1, 3, 1, 8, 1, 3]

    def test_bounds(self):
        with pytest.raises(ValueError):
            shading_mask(0, 10)


class TestCrossModule:
    def test_construction_iff_admissible_up_to_dim_16(self):
        for n in range(1, 9):
            max_m = radon_hurwitz(2 * n) - 1
            for m in range(1, max_m + 1):
                construct((n, m))  # verifies internally; raises on any defect
            with pytest.raises(InadmissiblePair) as err:
                construct((n, max_m + 1))
            assert err.value.rho_2n == radon_hurwitz(2 * n)

    @pytest.mark.parametrize("name", _VALUE_TYPES)
    def test_value_types_are_read_only(self, name):
        value = _VALUE_TYPES[name]()
        assert type(value).__name__ == name
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = None

    @pytest.mark.parametrize("name", _VALUE_TYPES)
    def test_value_types_are_their_tuples(self, name):
        value = _VALUE_TYPES[name]()
        assert type(value) is not tuple and value == tuple(value)
        assert hash(value) == hash(tuple(value))


class TestPackageExports:
    def test_all_is_the_modules_lists_each_name_once(self):
        modules = [importlib.import_module(f"pleijel.{name}") for name in _LIBRARY_MODULES]
        assert pleijel.__all__ == [name for module in modules for name in module.__all__]
        assert len(set(pleijel.__all__)) == len(pleijel.__all__)

    def test_every_name_resolves_to_its_module_object(self):
        for module_name in _LIBRARY_MODULES:
            module = importlib.import_module(f"pleijel.{module_name}")
            for name in module.__all__:
                assert getattr(pleijel, name) is getattr(module, name), (module_name, name)

    def test_dir_lists_every_export(self):
        assert set(pleijel.__all__) <= set(dir(pleijel))

    def test_bare_import_runs_no_library_module(self):
        # every library module is registered lazily and runs on first use
        probe = ("import json, sys, types\n"
                 "import pleijel\n"
                 "names = [name for name in sys.modules if name.startswith('pleijel.')]\n"
                 "ran = [name for name in names if type(sys.modules[name]) is types.ModuleType]\n"
                 "# vars() reads __dict__, which runs the module as any attribute does\n"
                 "print(json.dumps([sorted(names), ran, 'c_series' in vars(pleijel.series)]))\n")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        registered, ran, read = json.loads(result.stdout)
        assert registered == sorted(f"pleijel.{name}" for name in (
            *_LIBRARY_MODULES, "reference", "checks", "cells", "render", "argparser"))
        assert ran == []
        assert read

    def test_first_use_from_many_threads_sees_each_module_run(self):
        # eight threads ask a fresh process's lazy `constants` for one name at once:
        # each must wait for the module to finish running, in every run
        probe = ("import sys, threading\n"
                 "import pleijel\n"
                 "from pleijel import constants\n"
                 "sys.setswitchinterval(1e-6)\n"
                 "barrier, errors = threading.Barrier(8), []\n"
                 "def work():\n"
                 "    barrier.wait()\n"
                 "    try:\n"
                 "        constants.gamma_tilde_interval((2, 1))\n"
                 "    except AttributeError as exc:\n"
                 "        errors.append(repr(exc))\n"
                 "threads = [threading.Thread(target=work) for _ in range(8)]\n"
                 "for t in threads: t.start()\n"
                 "for t in threads: t.join(60)\n"
                 "print(sum(t.is_alive() for t in threads), len(errors), *errors[:1])\n")
        runs = [subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True) for _ in range(4)]
        for run in runs:
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0 and out == "0 0\n", (out, err)

    @pytest.mark.parametrize("name", ["binomial", "gamma_ratio_exact", "multiindex_count",
                                      "series_term_exact", "c_ratio_lower_bound", "phi",
                                      "is_admissible", "phi_closed_form", "term_ratio",
                                      "series_term", "group_identity", "group_inverse",
                                      "SublaplacianCoefficients", "sublaplacian_coefficients",
                                      "gamma_tilde", "weyl_constant", "gamma_bar", "zeta",
                                      "log_gamma", "as_half_integer", "log_gamma_bar",
                                      "psi"])
    def test_deleted_wrappers_are_gone(self, name):
        assert name not in pleijel.__all__ and not hasattr(pleijel, name)
        for module_name in _LIBRARY_MODULES:
            assert not hasattr(importlib.import_module(f"pleijel.{module_name}"), name)

    def test_deleted_members_are_gone(self):
        assert not hasattr(DimPair(3, 2), "homogeneous_dimension")
        assert Polynomial.__hash__ is None  # __eq__ without __hash__: unhashable
        assert not hasattr(SeriesValue, "midpoint")  # Enclosure(value, upper).mid
