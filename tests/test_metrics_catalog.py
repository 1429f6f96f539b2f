"""Tests for the metric catalog (`repro.runtime.catalog`) and REP013."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import LintEngine
from repro.runtime import catalog
from repro.runtime.catalog import (
    DYNAMIC_PREFIXES,
    METRICS,
    TIMERS,
    all_names,
    is_declared,
    missing_from_docs,
    undeclared,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(source, is_test=False):
    engine = LintEngine(select=["REP013"])
    return engine.lint_source(
        textwrap.dedent(source), path="snippet.py", is_test=is_test
    )


class TestCatalogContents:
    def test_counters_and_timers_are_disjoint_and_described(self):
        assert not set(METRICS) & set(TIMERS)
        for name, desc in {**METRICS, **TIMERS}.items():
            assert name == name.strip()
            assert desc.strip(), f"{name} has no description"

    def test_is_declared_covers_counters_timers_and_prefixes(self):
        assert is_declared("serving.requests")
        assert is_declared("design_matrix")  # timer
        assert is_declared("faults.injected.store.fsync")  # dynamic prefix
        assert not is_declared("serving.bogus")

    def test_undeclared_filters_and_sorts(self):
        names = ["serving.requests", "zzz.new", "aaa.new", "lock.acquires"]
        assert undeclared(names) == ["aaa.new", "zzz.new"]

    def test_all_names_is_sorted_union(self):
        names = all_names()
        assert list(names) == sorted(names)
        assert set(names) == set(METRICS) | set(TIMERS)

    def test_dynamic_prefixes_end_with_dot(self):
        assert DYNAMIC_PREFIXES
        for prefix in DYNAMIC_PREFIXES:
            assert prefix.endswith(".")


class TestCodeCatalogDrift:
    def test_every_metric_literal_in_src_is_declared(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in ("increment", "timer"):
                    continue
                if not node.args:
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    if not is_declared(arg.value):
                        offenders.append(
                            f"{path.name}:{node.lineno}: {arg.value}"
                        )
        assert offenders == []


class TestDocsGate:
    def test_repo_docs_document_every_declared_name(self):
        text = catalog._docs_text(REPO_ROOT / "docs")
        assert missing_from_docs(text) == []

    def test_missing_from_docs_requires_backticks(self):
        text = " ".join(all_names())  # names present but not back-ticked
        assert missing_from_docs(text) == list(all_names())

    def test_main_docs_exit_zero_on_repo_docs(self, capsys):
        code = catalog.main(["docs", str(REPO_ROOT / "docs")])
        assert code == 0
        assert "documented" in capsys.readouterr().out

    def test_main_docs_exit_one_on_rotten_docs(self, tmp_path, capsys):
        (tmp_path / "only.md").write_text(
            "`serving.requests` is documented here\n", encoding="utf-8"
        )
        code = catalog.main(["docs", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "lock.acquires" in out

    def test_main_usage_error(self, capsys):
        assert catalog.main([]) == 2
        assert catalog.main(["frobnicate"]) == 2


class TestUndeclaredMetricRule:
    def test_undeclared_literal_flagged(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f():
                metrics.increment("serving.not_a_real_counter")
            """
        )
        assert len(violations) == 1
        assert "serving.not_a_real_counter" in violations[0].message

    def test_declared_literal_clean(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f():
                metrics.increment("serving.requests")
                with metrics.timer("design_matrix"):
                    pass
            """
        )
        assert violations == []

    def test_dynamic_fstring_with_declared_prefix_clean(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f(name):
                metrics.increment(f"faults.injected.{name}")
            """
        )
        assert violations == []

    def test_dynamic_fstring_with_unknown_prefix_flagged(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f(name):
                metrics.increment(f"serving.dynamic.{name}")
            """
        )
        assert len(violations) == 1

    def test_variable_argument_skipped(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f(name):
                metrics.increment(name)
            """
        )
        assert violations == []

    def test_non_metrics_receiver_ignored(self):
        violations = lint(
            """
            def f(registry):
                registry.increment("definitely.not.declared")
            """
        )
        assert violations == []

    def test_tests_exempt(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f():
                metrics.increment("tests.scratch_counter")
            """,
            is_test=True,
        )
        assert violations == []

    def test_timer_literal_checked_too(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics

            def f():
                with metrics.timer("not.a.timer"):
                    pass
            """
        )
        assert len(violations) == 1

    def test_aliased_module_registry_checked(self):
        violations = lint(
            """
            from repro.runtime.metrics import metrics as runtime_metrics

            def f():
                runtime_metrics.increment("montecarlo.not_a_counter")
                with runtime_metrics.timer("not.a.timer"):
                    pass
            """
        )
        assert len(violations) == 2

    def test_private_attribute_registry_checked(self):
        violations = lint(
            """
            class Component:
                def f(self):
                    self._metrics.increment("serving.not_a_real_counter")
                    self.metrics.increment("serving.requests")
            """
        )
        assert len(violations) == 1
        assert "serving.not_a_real_counter" in violations[0].message

    def test_registry_factory_call_checked(self):
        violations = lint(
            """
            def f(owner):
                owner.shard_metrics().increment("serving.not_a_real_counter")
            """
        )
        assert len(violations) == 1
