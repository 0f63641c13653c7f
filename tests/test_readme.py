"""The README's Python example runs as written and does what its comments say."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import merostar
from merostar import cli
from merostar.classes import Status

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    verdict = namespace["verdict"]
    assert verdict.status is Status.SAMPLED_MEMBER
    assert verdict.min_margin == pytest.approx(7e-5, rel=0.05)  # "margin ~7e-5"
    assert namespace["report"].passed


def test_check_example_prints_the_verdict_shown(tmp_path, capsys):
    # the check section's first command, run on the bare pole its JSON block names
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n### check "):text.index("\n### extremal ")]
    assert "merostar check --class me --alpha 1.0 --series f.json\n" in section
    assert 'for the bare pole `{"coeffs": []}` under `--class me --alpha 1.0`' in section
    shown = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    series = tmp_path / "f.json"
    series.write_text('{"coeffs": []}\n', encoding="utf-8")
    code = cli.main(["check", "--class", "me", "--alpha", "1.0", "--series", str(series)])
    assert (code, capsys.readouterr().out) == (0, shown)


# What the package exported while `__init__.py` kept its own copy of the list,
# less the deleted `refinement_grid`, `me_margins` (`class_margins` with
# `Family.ME`), `from_coeffs` (`LaurentFunction(coeffs)`), `save_series` and
# `refute_on_axis` (`check_me` refutes a scaled TME member on the circle);
# every one of them must stay.
EARLIER_EXPORTS = """
    ClassSpec Family MembershipVerdict Status check_class check_me check_mf
    check_remark2 check_starlike coeff_bound coeff_sufficient_me class_margins
    coeff_weight grid_margins KernelSpec check_thm32
    convolve_with_kernel kernel neighborhood_sample stability_premise
    mf_not_me_witness remark1_witness starlike_not_mf_witness theorem21_extremal
    theorem21_tail_bound theorem23_extremal theorem23_tail_bound SUITE_IDS
    classify_me classify_tme load_series load_tme run_suite save_report
    RatioBoundReport check_ratio_bounds eq16_function CheckResult
    CheckStatus VerificationReport DiscGrid LaurentFunction deserialize_coeffs
    serialize_coeffs TmeFunction check_distortion check_tme_exact
    decompose distortion_bounds recompose sharp_function EXACT_TOL
    MARGIN_TOL ZERO_TOL __version__
""".split()


def _library_modules():
    """Every submodule but the command line, in name order."""
    names = sorted(m.name for m in pkgutil.iter_modules(merostar.__path__) if m.name != "cli")
    return [importlib.import_module(f"merostar.{name}") for name in names]


def test_every_exported_name_resolves():
    modules = _library_modules()
    declared = [name for module in modules for name in module.__all__]
    assert merostar.__all__ == declared + ["__version__"]
    assert len(set(merostar.__all__)) == len(merostar.__all__)
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name in merostar.__all__ if not hasattr(merostar, name)] == []
    assert [name for name in EARLIER_EXPORTS if not hasattr(merostar, name)] == []
    # the module `__all__`s are the only lists: __init__.py spells out no name
    init = ast.parse(Path(merostar.__file__).read_text(encoding="utf-8"))
    strings = [n.value for n in ast.walk(init) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert strings == [ast.get_docstring(init, clean=False), "0.1.0", "__version__"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_a_private_name_of_another_module():
    """Each module reaches the others through their public names only."""
    package = Path(merostar.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert {"cli.py", "__init__.py", "classes.py"} <= {p.name for p in paths}
    private = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("merostar")):
                if node.module in (None, "merostar"):  # `from . import harness`
                    modules |= {alias.asname or alias.name for alias in node.names}
                private += [f"{path.name}: {alias.name}" for alias in node.names if _private(alias.name)]
        private += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ]
    assert private == []


def test_one_function_refuses_text():
    """series.scalar is the one place that tells text from a number: no other
    function, and no module body, names str or bytes except to call it or in
    an annotation."""
    package = Path(merostar.__file__).parent
    testers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        for node in ast.walk(tree):
            annotations = []
            if isinstance(node, ast.Call):
                exempt.add(id(node.func))  # str(path) converts, it does not test
            if isinstance(node, ast.arg):
                annotations.append(node.annotation)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations.append(node.returns)
            if isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            exempt |= {id(n) for a in annotations if a is not None for n in ast.walk(a)}

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.stem}.{node.name}"
            if isinstance(node, ast.Name) and node.id in ("str", "bytes") and id(node) not in exempt:
                testers.append(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, f"{path.stem} (module body)")
    assert set(testers) == {"series.scalar"}, testers
