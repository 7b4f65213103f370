"""The compiled LAPACK routines the package calls, without importing scipy.linalg.

Importing ``scipy.linalg`` (or any submodule of it) clones the numpy
namespace, which loads numpy.f2py, numpy.testing and numpy.ma: most of this
package's import time, for code it never calls.  scipy's compiled
``_flapack`` extension is therefore loaded straight from its file.  That
relies on scipy's private file layout; when it fails for any reason the
routines come from ``scipy.linalg._flapack``, the same compiled code at the
old import cost.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.linalg._flapack"


def _load():
    """scipy's compiled LAPACK module, from its file or, failing that, by import."""
    try:
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                            "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.util.spec_from_file_location(_NAME, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:  # any failure of the fast path: the import below is the supported one
        from scipy.linalg import _flapack
        return _flapack
    if "scipy.linalg" not in sys.modules:
        # loading registered the module without its package; dropped, a later
        # import of scipy.linalg binds it (the same routines) as its attribute
        sys.modules.pop(_NAME, None)
    return module


_flapack = _load()
dgtsv, dgttrf, dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs
dstebz, dstein, dsyevd = _flapack.dstebz, _flapack.dstein, _flapack.dsyevd
