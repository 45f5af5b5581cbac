"""Guards on the package surface: each module's ``__all__`` is the one list of
its public names, no module keeps an unused import or internal name, and no
function takes a boolean switch."""

import ast
from pathlib import Path

import pytest

import nonlocality_lab
from nonlocality_lab import correlations, crypto_bell, entangled_ops, pr_box, singlet_sim

MODULES = (correlations, crypto_bell, entangled_ops, pr_box, singlet_sim)
SOURCES = sorted(
    path
    for path in Path(nonlocality_lab.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)

#: Names that left the package.  The test-only helpers among them now live
#: in the tests; ``SCRATCH_PER_POINT`` sized the world-frame sampling
#: buffers that the estimators no longer use; the two records of the crypto
#: settings gave way to (..., 2, 3) pair stacks; ``_one_alpha`` became
#: ``correlations._one_number``, the scalar rule for every real scalar.
DELETED = (
    "polar_from_standard",
    "standard_from_polar",
    "great_circle_point",
    "abs_sin_integral",
    "model_outcomes",
    "sgn",
    "operator_basis",
    "sign_of_bit",
    "SchmidtState",
    "CurvePartition",
    "_state_vector",
    "SCRATCH_PER_POINT",
    "RotatedPair",
    "FourDirectionFamily",
    "_one_alpha",
)


class TestPublicNames:
    def test_package_all_is_the_module_lists(self):
        expected = [name for module in MODULES for name in module.__all__]
        assert nonlocality_lab.__all__ == expected
        assert len(set(expected)) == len(expected)

    def test_every_public_name_resolves(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(nonlocality_lab, name) is getattr(module, name)

    @pytest.mark.parametrize("name", DELETED)
    def test_deleted_helpers_are_gone(self, name):
        for owner in (nonlocality_lab, *MODULES, singlet_sim.SphereSampler):
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def _unused_names(path: Path) -> list[str]:
    """Imports the module never uses, at module level or in a function
    body, and module-level names outside ``__all__`` (private ones included)
    that nothing in it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and bound not in public:
                    unused.append(f"import {bound}")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined = [node.target.id]
        else:
            continue
        for name in defined:
            internal = name not in public and not name.startswith("__")
            if internal and name not in read:
                unused.append(name)
    return unused


class TestNoDeadCode:
    def test_sources_found(self):
        assert {path.stem for path in SOURCES} >= {m.__name__.split(".")[-1] for m in MODULES}

    @pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
    def test_no_unused_import_or_internal_name(self, path):
        assert _unused_names(path) == []

    def test_guard_catches_leftovers(self, tmp_path):
        source = tmp_path / "leftover.py"
        source.write_text(
            "import math\n"
            "from .singlet_sim import as_unit_vector, sgn\n"
            "__all__ = ['f']\n"
            "TWO_PI = 2.0 * math.pi\n"
            "def _helper():\n    pass\n"
            "def f(v):\n    from concurrent.futures import ThreadPoolExecutor\n"
            "    return as_unit_vector(v)\n"
        )
        assert _unused_names(source) == [
            "import sgn",
            "import ThreadPoolExecutor",
            "TWO_PI",
            "_helper",
        ]


def _bool_knobs(path: Path) -> list[str]:
    """Parameters, as ``function.name``, whose default is a bool literal."""
    knobs = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [
                *zip(positional[len(positional) - len(args.defaults) :], args.defaults),
                *zip(args.kwonlyargs, args.kw_defaults),
            ]
            knobs += [
                f"{getattr(node, 'name', 'lambda')}.{arg.arg}"
                for arg, default in pairs
                if isinstance(default, ast.Constant) and isinstance(default.value, bool)
            ]
    return knobs


class TestNoBoolKnobs:
    """A formula with two variants returns both; it takes no switch between them."""

    @pytest.mark.parametrize(
        "path", sorted(Path(nonlocality_lab.__file__).parent.glob("*.py")), ids=lambda p: p.name
    )
    def test_no_bool_default(self, path):
        assert _bool_knobs(path) == []

    def test_guard_catches_leftovers(self, tmp_path):
        source = tmp_path / "leftover.py"
        source.write_text(
            "def chi_functions(alpha, tau, normalized: bool = False):\n    pass\n"
            "def g(x, *, strict=True, n=0, label=None):\n    pass\n"
            "def h(x=1, y=False):\n    pass\n"
        )
        assert _bool_knobs(source) == ["chi_functions.normalized", "g.strict", "h.y"]
