import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import specsparse

# The command-line front end; the package does not re-export it.
FRONT_END = {"cli"}

README = Path(__file__).parent.parent / "README.md"

# A backticked module constant, with its value given inside the backticks
# (`NAME = value`) or right after them (`NAME` = value).
README_CONSTANT = re.compile(r"`([A-Z][A-Z0-9]+(?:_[A-Z0-9]+)+)(?: = ([^`]+))?`(?: = ([-+.\w]+))?")


def library_modules():
    # __main__ runs the command line when imported.
    names = [m.name for m in pkgutil.iter_modules(specsparse.__path__) if m.name != "__main__"]
    return {name: importlib.import_module(f"specsparse.{name}") for name in names}


def test_every_listed_name_exists():
    for name, module in library_modules().items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], f"specsparse.{name}.__all__ lists missing names {missing}"


def test_package_exports_the_union_of_the_library_modules():
    listed = set()
    for name, module in library_modules().items():
        if name not in FRONT_END:
            listed.update(module.__all__)
    # Submodules are attributes of the package too.  ``specsparse.sparsify``
    # is the function of that name, which the package import binds over the
    # module of the same name, so it counts as an export.
    exported = {
        attr
        for attr, value in vars(specsparse).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed
    assert isinstance(specsparse.sparsify, types.FunctionType)


def test_no_private_scipy_module_is_imported():
    # A private module (a dotted name with a part that starts with "_") may
    # change or vanish in any scipy release without notice.
    private = []
    for path in sorted(Path(specsparse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "scipy" and any(part.startswith("_") for part in name.split(".")[1:])
            ]
    assert private == []


def test_readme_constants_exist_with_their_values():
    # A constant renamed, removed or retuned in the code leaves README stale.
    modules = [specsparse, *library_modules().values()]
    stale = []
    for name, inside, after in README_CONSTANT.findall(README.read_text(encoding="utf-8")):
        values = [getattr(module, name) for module in modules if hasattr(module, name)]
        given = (inside or after).rstrip(".")
        if not values:
            stale.append(f"{name} is not an attribute of specsparse or its modules")
        elif given and ast.literal_eval(given) not in values:
            stale.append(f"README gives {name} = {given}, the code {values[0]!r}")
    assert stale == []
