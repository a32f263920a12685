"""The public surface, and the library code the oracles may share.

A simplification that drops a public name or a CLI subcommand must do so
on purpose, by editing the lists below, and so must a change to the
constructor fields of a public value or config type.  The oracles of
``tests/oracle.py`` are only worth something if they do not run the
code they check, so one test reads that file's imports.  The range
kernel pays only on the jump identities' runs, so another pins which
library modules may name it.  The jump problem is set up on integers,
so a third keeps the value constructions out of that path.  The value
types are slotted, so a kept germ carries no per-instance dict.  The
package has no runtime dependency, so importing it loads only the
standard library.  The library reads no environment variable: a setting
read from there is an option like any other, and one must be added here
on purpose.
"""

import argparse
import ast
import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import geoindex
from geoindex import CertifiedReal, D, IndexGerm, N1, N2, R, cli

PUBLIC_NAMES = {
    "AdmissibilityError", "BasicBlock", "CertificateMismatch",
    "CertifiedReal", "D", "DegenerateIterate", "GeodesicSystem",
    "IdentityViolation", "ImpossibilityReport", "IndexGerm", "IndexProfile",
    "JumpCertificate", "JumpProblem", "MorseCounts", "N1", "N2", "NotFound",
    "PipelineConfig", "PrecisionBudget", "PrecisionInsufficient", "R",
    "ScaleMismatch", "ScaledCertificate", "SplittingPair",
    "TruncationUnsound", "Unbounded", "UnresolvedSpectrum", "ZeroMeanIndex",
    "alternating_sums", "betti", "betti_alternating", "big_C",
    "build_problem", "ceil_int", "check_certificate", "classify_2x2",
    "critical_dim", "default_budget", "delta_invariance",
    "deviation_bounds", "elliptic_height", "euler_block_identity",
    "floor_int", "forced_top_indices", "frac_part", "gamma_invariant",
    "germ_mbar", "index_at", "is_bumpy", "mbar", "mean_index",
    "mod4_contradiction", "mod4_window_certificate", "morse_numbers_up_to",
    "near_vertex", "nullity_at", "nullity_contribution", "parity_counts",
    "phi", "replay", "run_pipeline", "sandwich", "scale", "screen_parities",
    "search", "splitting_at", "splitting_sum", "sqrt_interval",
    "verify_index_window", "verify_jump", "verify_rounding",
}

SUBCOMMANDS = {"index", "mean-index", "gamma", "mbar", "jump-search",
               "verify-jump", "scale-jump", "morse", "anosov"}

# The init fields of the public value and config types, "*" marking a
# keyword-only one: a value is its ends and its flag, and a new
# constructor keyword is an option like any other.
INIT_FIELDS = {
    "CertifiedReal": ("lo", "hi", "*irrational"),
    "IndexGerm": ("name", "i1", "blocks", "n"),
    "N1": ("eigenvalue", "b_class"),
    "D": ("lam",),
    "R": ("t",),
    "N2": ("t", "nontrivial"),
    "PipelineConfig": ("delta", "epsilon", "p_hat", "n_min", "n_max", "M0",
                       "mbar_override"),
    "PrecisionBudget": ("max_digits",),
}

# The kernel, the rounding rows and the clause code of the search.
SEARCH_CODE = {"_kernel", "_Kernel", "_index", "_nullity", "_index_range",
               "_nullity_range", "_period_sums", "_row", "_times", "_floor",
               "_ceil", "_placement", "_compiled", "_quotient",
               "_delta_count", "_rounding_clauses", "_jump_clauses",
               "_jump_walk", "_lowest", "_sign"}
# Still imported by the oracles, until they check candidates without
# the search's code.
KNOWN_SHARED = {"_assemble"}
# Block data the walkers read: the input, not a computation on it.
BLOCK_INPUT = {"_table"}
# The range kernel, and the modules that define and read it.
RANGE_KERNEL = {"_index_range", "_nullity_range", "_period_sums"}
RANGE_MODULES = {"iteration.py", "jump.py"}
# The set-up of a jump problem, from the compiled kernel to the scaled
# certificate, and the value constructions it must not call: the
# CertifiedReal constructors, the mean and the conjugate angle 2 - t.
INTEGER_SETUP = {"iteration.py": {"_kernel", "_growth_horizon"},
                 "jump.py": {"build_problem", "_quotient", "_assemble",
                             "scale"}}
VALUE_CALLS = {"CertifiedReal", "interval", "rational", "mean_index",
               "_conjugate"}
# The ways a module reads the environment: os.environ, os.getenv and
# their bytes forms, imported or not.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_public_names_are_pinned():
    names = {n for n, v in vars(geoindex).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == PUBLIC_NAMES


def test_constructor_fields_are_pinned():
    fields = {name: tuple("*" * f.kw_only + f.name
                          for f in dataclasses.fields(getattr(geoindex, name))
                          if f.init)
              for name in INIT_FIELDS}
    assert fields == INIT_FIELDS


def test_cli_subcommands_are_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == SUBCOMMANDS
    assert set(cli._COMMANDS) == SUBCOMMANDS


def test_oracles_import_no_search_code():
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text(
        encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert not (imported | used) & SEARCH_CODE
    private = {n for n in imported if n.startswith("_")}
    assert private <= KNOWN_SHARED | BLOCK_INPUT, private


def _library_names():
    """(module file name, every name it imports or reads) per module."""
    for path in sorted(Path(geoindex.__file__).parent.glob("*.py")):
        named = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        yield path.name, named


def test_range_kernel_stays_in_iteration_and_jump():
    for name, named in _library_names():
        if name not in RANGE_MODULES:
            assert not named & RANGE_KERNEL, name


def test_library_reads_no_environment():
    for name, named in _library_names():
        assert not named & ENVIRONMENT, name


def test_jump_setup_builds_no_values():
    src = Path(geoindex.__file__).parent
    for module, names in INTEGER_SETUP.items():
        tree = ast.parse((src / module).read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}
        for name in names:
            called = {getattr(node.func, "id", getattr(node.func, "attr",
                                                       None))
                      for node in ast.walk(defs[name])
                      if isinstance(node, ast.Call)}
            assert not called & VALUE_CALLS, (module, name)


def test_value_types_are_slotted_and_copy_as_before():
    t = CertifiedReal.parse("0.4142135~6", irrational=True)
    germs = [IndexGerm("n1", 1, (N1(-1, "positive"),
                                 D(CertifiedReal.rational(2)))),
             IndexGerm("r", 2, (R(t), R(CertifiedReal.rational(1, 3)))),
             IndexGerm("n2", 1, (N2(t, nontrivial=True),))]
    values = [t, CertifiedReal.parse("3/7")] + germs
    values += [b for g in germs for b in g.blocks]
    assert {type(v) for v in values} == {CertifiedReal, IndexGerm, N1, D,
                                         R, N2}
    for v in values:
        assert not hasattr(v, "__dict__"), type(v)
        for twin in (dataclasses.replace(v), copy.deepcopy(v),
                     pickle.loads(pickle.dumps(v))):
            assert twin == v and hash(twin) == hash(v)
            assert repr(twin) == repr(v)


def test_imports_load_only_the_standard_library():
    # a fresh interpreter, so modules loaded before the import (a site
    # .pth file's, say) are diffed away rather than counted
    code = ("import sys; before = set(sys.modules); "
            "import geoindex, geoindex.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(geoindex.__file__).parent.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "geoindex.cli" in loaded and "geoindex.normal_forms" in loaded
    assert [m for m in loaded if m.partition(".")[0]
            not in sys.stdlib_module_names | {"geoindex"}] == []
