"""Session setup for the hypothesis property tests.

Hypothesis caches the constants it finds in the code under test in its
storage directory, ``.hypothesis/`` in the working directory by default,
and fills that cache while pytest collects.  The directory is pointed at
a temporary directory, removed when the session ends, so a test run
writes nothing into the working tree.

A failing hypothesis test imports libcst to propose a patch, and that
import raises a DeprecationWarning (from mypy_extensions) which the
warnings-as-errors setting turns into an internal error ending the whole
session.  libcst is imported here once with that warning silenced, so a
failure is reported as a failure and the remaining tests still run.
"""

import tempfile
import warnings

from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
