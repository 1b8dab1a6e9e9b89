"""Import hygiene of the package, checked with the stdlib ast module:
every module uses each name it imports (a stand-in for a linter's
unused-import check), every function reads each of its parameters,
only numkernel imports scipy (scipy.linalg.lapack only as the loader
fallback), and only numkernel may bind the LAPACK
SVD, RQ, QZ and real Schur routines, scipy's lu_factor, lu_solve and
solve, its Cholesky factor or its Riccati, Sylvester and Lyapunov
solvers, call numpy's solve, inv, eigh, eigvals or cholesky
(dss.evaluate's complex solve excepted), or take a matrix 2-norm (an
SVD), so every call goes through its kernels. Only io and gallery call make_dss, and only
dss._system the DescriptorSystem constructor, so computed realizations
skip the input checks. Only dss and fact draw evaluation points
(frequency_grid, nonpole_evaluations), so every residual of a
factorization identity is computed in fact, and cli evaluates a system
only for its eval command. Only dss's point generator draws a random
number, so every random point follows one rule. Only numkernel names
the machine epsilon (EPS, finfo, spacing), so every threshold comes
from its tolerance policy. numkernel loads scipy's compiled LAPACK module
without the scipy.linalg package, which a cold CLI process would
otherwise spend about half its time importing. klf.special_klf sets
no block to a constant or a copy itself: each goes through
klf._set_block, which returns the norm of the change for the backward
error check, and only klf.special_klf builds a SpecialKlf. Only the kept
accessor dss._controllable_observable_part runs the decoupling
staircases (_controllable_part, _observable_part), so fact reaches a
decoupling reduction only through it or irreducible_realization, and
only dss._controllable_part calls the controllability staircase
controllable_bases. Only rangebasis._riccati_feedback calls the Riccati
solver stabilizing_riccati, and fact imports no private gain helper of
rangebasis: it builds its bases through rangebasis._trailing_basis.
Only dss._eigen_list_from_pencil calls klf._klf_core without its
transformations, so the forms that read Q and Z always have them."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rmfact"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in source but never
    read as a name, in line order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(bound) if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .rangebasis import cofactor, range_basis\n"
        "def f():\n"
        "    from .klf import special_klf\n"
        "    return np.eye(2), range_basis, os.sep\n"
    )
    assert unused_imports(source) == ["line 4: cofactor", "line 6: special_klf"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_parameters(source: str) -> list:
    """Parameters of each def in source that its body never reads as a
    name, nested functions included, in line order. Lambdas are exempt:
    callbacks such as ordqz selectors have fixed signatures."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [(node.lineno, f"{node.name}({p.arg})") for p in params if p.arg not in read]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_parameter_checker_flags_only_unread_parameters():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    b = 2\n"
        "    return a\n"
        "class K:\n"
        "    def g(self, x):\n"
        "        def h():\n"
        "            return x\n"
        "        return h, lambda a, b: a\n"
        "    def k(self, y):\n"
        "        return self\n"
    )
    assert unread_parameters(source) == [
        "line 1: f(args)",
        "line 1: f(b)",
        "line 1: f(c)",
        "line 1: f(kw)",
        "line 5: g(self)",
        "line 9: k(y)",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_unread_parameters(module):
    assert unread_parameters((PACKAGE / module).read_text()) == []


# dense kernels with one home, numkernel; the other modules call its wrappers
KERNEL_HOME = "numkernel.py"
KERNELS = {
    "scipy.linalg.svd",
    "numpy.linalg.svd",
    "scipy.linalg.lu_factor",
    "scipy.linalg.lu_solve",
    "scipy.linalg.solve",
    "scipy.linalg.rq",
    "scipy.linalg.qz",
    "scipy.linalg.ordqz",
    "scipy.linalg.solve_continuous_are",
    "scipy.linalg.solve_discrete_are",
    # numkernel's solve, symmetric_eigen and eigenvalues make numpy's
    # LAPACK calls without its Python dispatch
    "numpy.linalg.solve",
    "numpy.linalg.inv",
    "numpy.linalg.eigh",
    "numpy.linalg.eigvals",
    # numkernel's continuous Riccati solve takes real Schur forms, a
    # Cholesky factor and a Sylvester solve through LAPACK directly
    "scipy.linalg.schur",
    "scipy.linalg.cholesky",
    "numpy.linalg.cholesky",
    "scipy.linalg.solve_sylvester",
    "scipy.linalg.solve_continuous_lyapunov",
}

# (module, function, kernel) references outside numkernel, with why:
# dss.evaluate solves in complex arithmetic for the residual certificates,
# which numkernel's real kernels do not serve
KERNEL_EXCEPTIONS = {
    ("dss.py", "evaluate", "numpy.linalg.solve"): "the complex solve of the residual certificates",
}


# a matrix 2-norm is an SVD: calls of these with ord 2 or -2 count as one
NORMS = {"numpy.linalg.norm", "scipy.linalg.norm"}


def _spectral_ord(call: ast.Call) -> bool:
    """True when a norm call passes ord 2 or -2, positionally or by name."""
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    for node in ords:
        try:
            if ast.literal_eval(node) in (2, -2):
                return True
        except ValueError:
            pass
    return False


def kernel_hits(source: str) -> list:
    """(line, name) of each reference in source to a name in KERNELS,
    through an attribute chain on an imported module or a from-import,
    and of each call of a name in NORMS with a spectral ord, in line
    order."""
    tree = ast.parse(source)
    # the dotted name each imported name is bound to
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                dotted = f"{node.module}.{a.name}"
                modules[a.asname or a.name] = dotted
                if dotted in KERNELS:
                    found.append((node.lineno, dotted))

    def resolve(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in modules:
            return ".".join([modules[node.id]] + parts[::-1])
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and resolve(node) in KERNELS:
            found.append((node.lineno, resolve(node)))
        elif isinstance(node, ast.Call) and resolve(node.func) in NORMS and _spectral_ord(node):
            found.append((node.lineno, f"{resolve(node.func)}(ord=2)"))
    return sorted(found)


def kernel_references(source: str) -> list:
    """kernel_hits of source as "line N: name"."""
    return [f"line {line}: {name}" for line, name in kernel_hits(source)]


def test_kernel_checker_flags_every_spelling():
    source = (
        "import numpy as np\n"
        "import scipy.linalg\n"
        "import scipy.linalg as sla\n"
        "from scipy.linalg import lu_factor, qr\n"
        "from numpy import linalg\n"
        "from numpy.linalg import norm\n"
        "from .numkernel import svd\n"
        "np.linalg.svd(M)\n"
        "scipy.linalg.lu_solve(lu, b)\n"
        "sla.svd(M), linalg.svd(M)\n"
        "scipy.linalg.qr(M), svd(M), np.linalg.norm(M)\n"
        "np.linalg.norm(M, 'fro'), norm(M, axis=0), linalg.norm(M, 1), sla.norm(M, ord=np.inf)\n"
        "np.linalg.norm(M, 2), linalg.norm(M, ord=-2)\n"
        "norm(M, ord=2), sla.norm(M, 2)\n"
        "from numpy.linalg import eigh as sym_eig, inv\n"
        "np.linalg.solve(M, b), linalg.eigvals(M)\n"
        "sla.schur(M, sort='lhp'), linalg.cholesky(M), scipy.linalg.solve_sylvester(A, B, C)\n"
        "from scipy.linalg import cholesky, solve_continuous_lyapunov as lyapunov\n"
    )
    assert kernel_references(source) == [
        "line 4: scipy.linalg.lu_factor",
        "line 8: numpy.linalg.svd",
        "line 9: scipy.linalg.lu_solve",
        "line 10: numpy.linalg.svd",
        "line 10: scipy.linalg.svd",
        "line 13: numpy.linalg.norm(ord=2)",
        "line 13: numpy.linalg.norm(ord=2)",
        "line 14: numpy.linalg.norm(ord=2)",
        "line 14: scipy.linalg.norm(ord=2)",
        "line 15: numpy.linalg.eigh",
        "line 15: numpy.linalg.inv",
        "line 16: numpy.linalg.eigvals",
        "line 16: numpy.linalg.solve",
        "line 17: numpy.linalg.cholesky",
        "line 17: scipy.linalg.schur",
        "line 17: scipy.linalg.solve_sylvester",
        "line 18: scipy.linalg.cholesky",
        "line 18: scipy.linalg.solve_continuous_lyapunov",
    ]


def function_lines(source: str, name: str) -> set:
    """The line numbers of every def called name in source."""
    return {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
        for line in range(node.lineno, node.end_lineno + 1)
    }


def test_function_lines_cover_only_the_named_def():
    source = "def evaluate(s):\n    return s\n\ndef other(s):\n    return s\n"
    assert function_lines(source, "evaluate") == {1, 2}


@pytest.mark.parametrize("module", [m for m in MODULES if m != KERNEL_HOME])
def test_lapack_kernels_have_one_home(module):
    source = (PACKAGE / module).read_text()
    hits = kernel_hits(source)
    for mod, function, kernel in KERNEL_EXCEPTIONS:
        if mod == module:
            lines = function_lines(source, function)
            excepted = [(line, name) for line, name in hits if name == kernel and line in lines]
            # each exception names a call that is still there
            assert excepted, (function, kernel)
            hits = [hit for hit in hits if hit not in excepted]
    assert [f"line {line}: {name}" for line, name in hits] == []


def scipy_imports(source: str) -> list:
    """Import statements anywhere in source that load scipy or one of its
    modules, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scipy_import_checker_flags_every_spelling():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "import os, scipy.linalg as sla\n"
        "from scipy import linalg\n"
        "from .numkernel import svd\n"
        "def f():\n"
        "    from scipy.linalg.lapack import get_lapack_funcs\n"
        "    return get_lapack_funcs\n"
    )
    assert scipy_imports(source) == [
        "line 2: scipy",
        "line 3: scipy.linalg",
        "line 4: scipy",
        "line 7: scipy.linalg.lapack",
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != KERNEL_HOME] + ["__init__.py"])
def test_only_numkernel_imports_scipy(module):
    assert scipy_imports((PACKAGE / module).read_text()) == []


def test_numkernel_imports_scipy_only_for_its_lapack_bindings():
    imports = scipy_imports((PACKAGE / KERNEL_HOME).read_text())
    assert [line.split(": ", 1)[1] for line in imports] == ["scipy.linalg.lapack"]


# outside data enters through io and gallery, which check it with
# make_dss; every realization the package computes is built by
# dss._system, the one caller of the DescriptorSystem constructor
CHECKED_ENTRIES = {"io.py", "gallery.py"}
CONSTRUCTORS = ("make_dss", "DescriptorSystem")


def calls_of(source: str, names) -> list:
    """Calls in source of a function in names, by name or as an
    attribute, with the innermost def that makes each (<module> at top
    level), in line order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((child.lineno, f"{where} calls {name}"))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {call}" for line, call in sorted(found)]


def test_constructor_checker_flags_every_spelling():
    source = (
        "from . import dss\n"
        "from .dss import DescriptorSystem, make_dss\n"
        "g = make_dss(A, None, B, C, D, ts)\n"
        "def f(sys):\n"
        "    def g():\n"
        "        return dss.DescriptorSystem(sys.A, None, sys.B, sys.C, sys.D, sys.ts)\n"
        "    return g, isinstance(sys, DescriptorSystem), dss.make_dss(*sys)\n"
    )
    assert calls_of(source, CONSTRUCTORS) == [
        "line 3: <module> calls make_dss",
        "line 6: g calls DescriptorSystem",
        "line 7: f calls make_dss",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_computed_realizations_skip_the_input_checks(module):
    allowed = {"_system calls DescriptorSystem"} if module == "dss.py" else set()
    calls = calls_of((PACKAGE / module).read_text(), CONSTRUCTORS)
    if module in CHECKED_ENTRIES:
        calls = [c for c in calls if not c.endswith("calls make_dss")]
    assert [c for c in calls if c.split(": ", 1)[1] not in allowed] == []


# dss draws the evaluation points; fact evaluates every factorization
# identity on them, and the other modules only report its residuals
POINT_SAMPLERS = ("frequency_grid", "nonpole_evaluations")
SAMPLING_MODULES = {"dss.py", "fact.py"}


@pytest.mark.parametrize("module", [m for m in MODULES if m not in SAMPLING_MODULES] + ["__init__.py"])
def test_residuals_have_one_home(module):
    assert calls_of((PACKAGE / module).read_text(), POINT_SAMPLERS) == []


def test_cli_evaluates_only_for_eval():
    calls = calls_of((PACKAGE / "cli.py").read_text(), ("evaluate",))
    assert calls and [c for c in calls if not c.endswith("_cmd_eval calls evaluate")] == []


# machine precision has one home, numkernel: the other modules take
# every threshold from ToleranceConfig and the fixed rules beside it
PRECISION_NAMES = {"EPS", "finfo", "spacing"}


def precision_references(source: str) -> list:
    """Names in PRECISION_NAMES anywhere in source, read as a name or an
    attribute or bound by an import, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in PRECISION_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in PRECISION_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[-1] in PRECISION_NAMES]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_precision_checker_flags_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy import finfo as fi\n"
        "from .numkernel import EPS, noise_floor\n"
        "x = np.finfo(float).eps + EPS\n"
        "y = np.spacing(1.0), fi(float), noise_floor(1.0, 2), np.linalg.norm(x)\n"
    )
    assert precision_references(source) == [
        "line 2: finfo",
        "line 3: EPS",
        "line 4: EPS",
        "line 4: finfo",
        "line 5: spacing",
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != KERNEL_HOME] + ["__init__.py"])
def test_only_numkernel_names_machine_precision(module):
    assert precision_references((PACKAGE / module).read_text()) == []


# special_klf checks its backward error by summing what each block it
# sets changed, so every block it sets goes through klf._set_block
PLAIN_CALLS = {"copy", "array", "asarray", "zeros", "zeros_like", "ones", "ones_like", "full", "full_like", "empty"}


def _plain(value) -> bool:
    """A constant, an array or a block of one, or a copy or a constant
    array made by a call in PLAIN_CALLS, signed or not."""
    if isinstance(value, ast.UnaryOp):
        return _plain(value.operand)
    if isinstance(value, ast.Call):
        func = value.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in PLAIN_CALLS
    return isinstance(value, (ast.Constant, ast.Name, ast.Subscript))


def _plain_subscripts(target, value):
    """Subscript targets that target = value sets to a plain value."""
    if isinstance(target, ast.Subscript):
        return [target] if _plain(value) else []
    if isinstance(target, (ast.Tuple, ast.List)):
        paired = isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts)
        values = value.elts if paired else [value] * len(target.elts)
        return [t for elt, v in zip(target.elts, values) for t in _plain_subscripts(elt, v)]
    return []


def block_sets(source: str, function: str) -> list:
    """Blocks that the def named function in source sets to a constant or
    a plain copy: by assignment (chained, augmented, annotated or to a
    tuple), ndarray.fill or numpy.copyto, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name == function):
            continue
        for stmt in ast.walk(node):
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = [t for target in stmt.targets for t in _plain_subscripts(target, stmt.value)]
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) and stmt.value is not None:
                targets = _plain_subscripts(stmt.target, stmt.value)
            elif isinstance(stmt, ast.Call) and isinstance(stmt.func, ast.Attribute) and stmt.func.attr == "fill":
                targets = [stmt.func.value]
            elif isinstance(stmt, ast.Call) and getattr(stmt.func, "attr", getattr(stmt.func, "id", None)) == "copyto":
                targets = stmt.args[:1]
            found += [(t.lineno, ast.unparse(t)) for t in targets]
    return [f"line {line}: {block}" for line, block in sorted(found)]


def test_block_set_checker_flags_every_spelling():
    source = (
        "import numpy as np\n"
        "def special_klf(M, N, B):\n"
        "    M[0, :] = 0.0\n"
        "    N[1:, 0] = -0\n"
        "    M[:2, :2] = B[:2, :2]\n"
        "    N[0] = B\n"
        "    M[1], N[1] = B[0].copy(), 0.0\n"
        "    M[2] = N[2] = np.zeros(3)\n"
        "    M[3] *= 0\n"
        "    M[4].fill(0.0)\n"
        "    np.copyto(N[4], B[4])\n"
        "    M[5]: float = 1.0\n"
        "    M[:, :] = M @ B\n"
        "    changes = {}\n"
        "    changes['row 6'] = _set_block(N, np.s_[6, :])\n"
        "    return M, changes\n"
        "def other(M):\n"
        "    M[0] = 0.0\n"
    )
    assert block_sets(source, "special_klf") == [
        "line 3: M[0, :]",
        "line 4: N[1:, 0]",
        "line 5: M[:2, :2]",
        "line 6: N[0]",
        "line 7: M[1]",
        "line 7: N[1]",
        "line 8: M[2]",
        "line 8: N[2]",
        "line 9: M[3]",
        "line 10: M[4]",
        "line 11: N[4]",
        "line 12: M[5]",
    ]


def test_special_klf_sets_blocks_only_through_the_helper():
    source = (PACKAGE / "klf.py").read_text()
    assert block_sets(source, "special_klf") == []
    assert [c for c in calls_of(source, ("_set_block",)) if c.endswith("special_klf calls _set_block")]


# every splitting form comes out of special_klf's reduction, checked
# and kept under its key; no other code assembles one
@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_special_klf_builds_a_splitting_form(module):
    allowed = {"special_klf calls SpecialKlf"} if module == "klf.py" else set()
    calls = calls_of((PACKAGE / module).read_text(), ("SpecialKlf",))
    assert [c for c in calls if c.split(": ", 1)[1] not in allowed] == []


# one decoupling reduction per realization and tolerance: the staircases
# run only inside dss's kept accessor, and every other module reaches the
# controllable and observable part through it or irreducible_realization
DECOUPLING_STEPS = ("_controllable_part", "_observable_part")
KEPT_ACCESSOR = {
    "_observable_part names _controllable_part",
    "_controllable_observable_part names _controllable_part",
    "_controllable_observable_part names _observable_part",
}


def references_of(source: str, names) -> list:
    """References in source to a name in names, read as a name or an
    attribute or bound by an import, with the innermost def that makes
    each (<module> at top level), in line order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id in names:
                found.append((child.lineno, f"{where} names {child.id}"))
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.append((child.lineno, f"{where} names {child.attr}"))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend((child.lineno, f"{where} names {a.name}") for a in child.names if a.name in names)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {ref}" for line, ref in sorted(found)]


def test_reference_checker_flags_every_spelling():
    source = (
        "from . import dss\n"
        "from .dss import _observable_part as observable\n"
        "def part(sys, tol):\n"
        "    step = dss._controllable_part\n"
        "    return observable(step(sys, tol), tol)\n"
        "def _controllable_part(sys):\n"
        "    return sys\n"
    )
    assert references_of(source, DECOUPLING_STEPS) == [
        "line 2: <module> names _observable_part",
        "line 4: part names _controllable_part",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_the_kept_accessor_reduces(module):
    allowed = KEPT_ACCESSOR if module == "dss.py" else set()
    refs = references_of((PACKAGE / module).read_text(), DECOUPLING_STEPS)
    assert [r for r in refs if r.split(": ", 1)[1] not in allowed] == []


# the controllability staircase has one caller, the decoupling step of the
# kept accessor: the gain solvers work on the whole trailing block
STAIRCASE_CALLER = ["_controllable_part names controllable_bases"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_controllable_bases_has_one_caller(module):
    refs = references_of((PACKAGE / module).read_text(), ("controllable_bases",))
    assert [r.split(": ", 1)[1] for r in refs] == (STAIRCASE_CALLER if module == "dss.py" else [])


# one Riccati feedback: every gain solve reaches the Riccati solver through
# rangebasis._riccati_feedback, and fact builds its bases through
# rangebasis._trailing_basis, not through the private gain helpers
RICCATI_CALLER = ["<module> names stabilizing_riccati", "_riccati_feedback names stabilizing_riccati"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_stabilizing_riccati_has_one_caller(module):
    refs = references_of((PACKAGE / module).read_text(), ("stabilizing_riccati",))
    assert [r.split(": ", 1)[1] for r in refs] == (RICCATI_CALLER if module == "rangebasis.py" else [])


def test_fact_imports_no_private_gain_helper():
    imports = [node for node in ast.walk(ast.parse((PACKAGE / "fact.py").read_text())) if isinstance(node, ast.ImportFrom)]
    private = [a.name for node in imports if node.module == "rangebasis" for a in node.names if a.name.startswith("_")]
    assert private == ["_trailing_basis"]


# every random point, a rank probe's or a residual check's, is drawn by
# dss._pencil_points on the pencil scale of one system
RANDOM_DRAWS = ("standard_normal", "gauss")
POINT_GENERATOR = {"_pencil_points names standard_normal", "_pencil_points names gauss"}


def test_draw_checker_flags_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy.random import standard_normal\n"
        "def probe(rng):\n"
        "    draw = rng.standard_normal\n"
        "    return draw() + np.random.default_rng(0).standard_normal(2)\n"
        "def _pencil_points(sys, rng):\n"
        "    yield complex(rng.standard_normal(), rng.normal())\n"
        "def stdlib_probe(rng):\n"
        "    return complex(rng.gauss(0.0, 1.0), random.gauss())\n"
    )
    assert references_of(source, RANDOM_DRAWS) == [
        "line 2: <module> names standard_normal",
        "line 4: probe names standard_normal",
        "line 5: probe names standard_normal",
        "line 7: _pencil_points names standard_normal",
        "line 9: stdlib_probe names gauss",
        "line 9: stdlib_probe names gauss",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_random_points_have_one_generator(module):
    allowed = POINT_GENERATOR if module == "dss.py" else set()
    refs = references_of((PACKAGE / module).read_text(), RANDOM_DRAWS)
    assert [r for r in refs if r.split(": ", 1)[1] not in allowed] == []
    if module == "dss.py":
        assert refs


# the structure queries read only the eigenvalues of a Kronecker-like form:
# dss._eigen_list_from_pencil is the one call of _klf_core that drops the
# transformations, which special_klf and kronecker_like_form read
def calls_without_transforms(source: str, name: str) -> list:
    """Calls in source of the function name that pass its transforms
    argument, fourth positionally or by keyword, as anything but the
    constant True, with the innermost def that makes each, in line
    order."""
    found = []

    def dropped(call):
        given = call.args[3:4] + [k.value for k in call.keywords if k.arg == "transforms"]
        return any(not (isinstance(v, ast.Constant) and v.value is True) for v in given)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name and dropped(child):
                    found.append((child.lineno, f"{where} calls {name}"))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return [f"line {line}: {call}" for line, call in sorted(found)]


def test_transforms_checker_flags_every_spelling():
    source = (
        "from . import klf\n"
        "from .klf import _klf_core\n"
        "def full(M, N, t):\n"
        "    return _klf_core(M, N, t), klf._klf_core(M, N, t, True), _klf_core(M, N, t, transforms=True)\n"
        "def eigen(M, N, t, flag):\n"
        "    return _klf_core(M, N, t, False), klf._klf_core(M, N, t, transforms=flag)\n"
        "def other(M, N, t):\n"
        "    return _klf_core(M, N, t, 0), _stage_peel(M, N, t, False)\n"
    )
    assert calls_without_transforms(source, "_klf_core") == [
        "line 6: eigen calls _klf_core",
        "line 6: eigen calls _klf_core",
        "line 8: other calls _klf_core",
    ]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_the_eigenvalue_lists_drop_the_klf_transformations(module):
    calls = calls_without_transforms((PACKAGE / module).read_text(), "_klf_core")
    expected = ["_eigen_list_from_pencil calls _klf_core"] if module == "dss.py" else []
    assert [c.split(": ", 1)[1] for c in calls] == expected
