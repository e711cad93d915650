"""The documentation layer stays honest: snippets parse, paths exist.

Imports ``tools/check_docs.py`` (also run standalone by the CI docs job) and
runs it over the real documents, plus negative tests proving the checker
actually catches rot.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestRealDocuments:
    @pytest.mark.parametrize("document", [
        "README.md", "DESIGN.md", "docs/ARCHITECTURE.md",
        "docs/PARALLELISM.md", "docs/TUTORIAL.md",
    ])
    def test_document_exists_and_is_clean(self, document):
        path = REPO_ROOT / document
        assert path.exists(), f"{document} is missing"
        assert check_docs.check_file(path) == []

    def test_readme_covers_every_cli_subcommand(self):
        """The README quickstart must show a worked example per subcommand."""
        from repro.cli import build_parser

        subcommands = build_parser()._subparsers._group_actions[0].choices
        readme = (REPO_ROOT / "README.md").read_text()
        for name in subcommands:
            assert f"repro.cli {name}" in readme, f"README lacks an example for {name!r}"

    def test_architecture_names_every_package(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        packages = [p.name for p in (REPO_ROOT / "src" / "repro").iterdir()
                    if p.is_dir() and not p.name.startswith("__")]
        for package in packages:
            assert f"repro.{package}" in text, f"ARCHITECTURE.md lacks repro.{package}"

    def test_tutorial_tours_the_four_stops(self):
        """The tutorial must walk explore → workloads → parallel → serve."""
        text = (REPO_ROOT / "docs" / "TUTORIAL.md").read_text()
        for subcommand in ("explore", "workloads", "parallel", "serve"):
            assert f"repro.cli {subcommand}" in text, \
                f"TUTORIAL.md lacks a worked 'repro.cli {subcommand}' command"

    def test_parallelism_doc_defines_the_model(self):
        text = (REPO_ROOT / "docs" / "PARALLELISM.md").read_text()
        for topic in ("Tensor parallel", "Pipeline parallel", "ring all-reduce",
                      "conservation", "Background groups"):
            assert topic in text, f"PARALLELISM.md lacks {topic!r}"

    def test_design_documents_serving_model(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for topic in ("Serving model", "Arrival processes", "Queueing assumptions",
                      "Context-switch cost", "TENANT_SWITCH_FLUSH_CYCLES"):
            assert topic in text, f"DESIGN.md serving section lacks {topic!r}"


class TestCheckerCatchesRot:
    def check(self, tmp_path, body):
        path = tmp_path / "doc.md"
        path.write_text(body)
        return check_docs.check_file(path)

    def test_flags_broken_python_block(self, tmp_path):
        problems = self.check(tmp_path, "```python\ndef broken(:\n```\n")
        assert any("does not compile" in problem for problem in problems)

    def test_flags_unknown_cli_flag(self, tmp_path):
        problems = self.check(tmp_path, "```sh\npython -m repro.cli gemm --no-such-flag\n```\n")
        assert any("does not parse" in problem for problem in problems)

    def test_flags_unknown_subcommand(self, tmp_path):
        problems = self.check(tmp_path, "```sh\npython -m repro.cli frobnicate\n```\n")
        assert any("does not parse" in problem for problem in problems)

    def test_flags_missing_path(self, tmp_path):
        problems = self.check(tmp_path, "see src/repro/no_such_module.py for details\n")
        assert any("does not exist" in problem for problem in problems)

    @pytest.mark.parametrize("name", [
        "repro.no_such_package",
        "repro.mmae.no_such_module",
        "repro.mmae.systolic_array.SystolicArrayEmulator",
        "repro.core.MACOSystem.no_such_method",
    ])
    def test_flags_unresolved_qualified_name(self, tmp_path, name):
        problems = self.check(tmp_path, f"see `{name}` for details\n")
        assert problems == [f"{tmp_path / 'doc.md'}: referenced name does not resolve: {name}"]

    def test_flags_missing_member_of_an_exported_class(self, tmp_path):
        """`MappingPlan.sub_shapes` is a dataclass field without a default."""
        problems = self.check(
            tmp_path, "`MACOSystem.no_such_member` and `MappingPlan.sub_shapes`\n")
        assert problems == [
            f"{tmp_path / 'doc.md'}: referenced name does not resolve: MACOSystem.no_such_member"]

    def test_accepts_valid_snippets(self, tmp_path):
        body = (
            "```python\nprint('ok')\n```\n"
            "```sh\nPYTHONPATH=src python -m repro.cli serve --tenants 2  # comment\n"
            "python -m repro.cli explore --sample lhs \\\n    --points 4\n```\n"
            "see src/repro/cli.py, `repro.serve`, `repro.core.MACOSystem.run_workload`\n"
            "and `repro.conformance.functional_oracle.translate_tile`\n"
        )
        assert self.check(tmp_path, body) == []

    def test_joins_backslash_continuations(self):
        joined = check_docs._join_continuations("python -m repro.cli bench --quick \\\n  --repeat 3")
        assert joined == ["python -m repro.cli bench --quick --repeat 3"]
