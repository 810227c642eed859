"""scipy's compiled elliptic-integral and LAPACK routines, without
``scipy.special`` or ``scipy.linalg``.

The package needs two elliptic integrals (the chain map of
``solver.mesh``) and three LAPACK routines (the bordered LU of
``solver.nystrom``). Both scipy subpackages import scipy's array-API
layer, which star-imports numpy and so loads ``numpy.f2py``,
``numpy.testing``, ``numpy.random`` and ``numpy.ma``: about 0.2 s of every
import of the package (2-vCPU host). The routines themselves sit in two
compiled extensions, which load by file location in a few milliseconds
without scipy's Python layer:

  * ``scipy/special/_special_ufuncs``: the ufuncs ``ellipk`` and
    ``ellipkinc``, the very objects ``scipy.special`` re-exports;
  * ``scipy/linalg/_flapack``: ``dgetrf``, ``dgetrs`` and ``dgecon``, the
    routines ``scipy.linalg.get_lapack_funcs`` hands out for float64.

An extension is registered in ``sys.modules`` under its own name, as an
import registers it, so a later ``import scipy.special`` reuses it, and
one imported before is taken from there. Where a file or a name is
missing (scipy versions with another layout), the public subpackages
serve the same routines.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _direct(subpackage: str, stem: str, names: tuple[str, ...]):
    """The routines ``names`` of scipy's compiled module
    ``scipy.<subpackage>.<stem>``, loaded by file location without
    importing scipy or the subpackage; None where the file, or one of the
    names, is missing or the file does not load."""
    name = f"scipy.{subpackage}.{stem}"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        roots = scipy_spec.submodule_search_locations if scipy_spec else None
        paths = [os.path.join(root, subpackage, stem + suffix) for root in roots or ()
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(name, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return None
        sys.modules[name] = module
    if not all(hasattr(module, n) for n in names):
        return None
    return tuple(getattr(module, n) for n in names)


def _special():
    """``ellipk`` and ``ellipkinc``."""
    names = ("ellipk", "ellipkinc")
    found = _direct("special", "_special_ufuncs", names)
    if found is None:
        import scipy.special
        found = tuple(getattr(scipy.special, n) for n in names)
    return found


def _lapack():
    """LAPACK's float64 ``getrf``, ``getrs`` and ``gecon``."""
    found = _direct("linalg", "_flapack", ("dgetrf", "dgetrs", "dgecon"))
    if found is None:
        import scipy.linalg
        found = tuple(scipy.linalg.get_lapack_funcs(("getrf", "getrs", "gecon")))
    return found


ellipk, ellipkinc = _special()
getrf, getrs, gecon = _lapack()
