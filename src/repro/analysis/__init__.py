"""Static analysis + runtime contracts guarding the runtime's invariants.

Two halves of one guarantee:

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` /
  :mod:`repro.analysis.concurrency` -- a reusable AST lint engine with
  domain rules REP001-REP013 (deterministic RNG flow, no float-literal
  equality, locked module state, no ``assert`` validation, lock-discipline
  analysis REP010-REP012, metric-catalog drift REP013), run as
  ``python -m repro.analysis src tests`` or ``repro-lint`` in CI.
* :mod:`repro.analysis.contracts` -- runtime decorators asserting array
  shape/dtype/writeability where static analysis cannot see (cache-served
  matrices stay read-only, design matrices are C-contiguous float64).

See ``docs/analysis.md`` for rules, suppressions, and the baseline flow.
"""

from . import concurrency, rules  # noqa: F401 -- importing registers the rule set
from .baseline import filter_baselined, load_baseline, write_baseline
from .contracts import (
    ContractViolationError,
    accepts_arrays,
    check_array,
    contracts_enabled,
    returns_array,
    set_contracts_enabled,
)
from .engine import LintEngine, ProjectRule, Rule, register_rule, registered_rules
from .reporters import format_github, format_json, format_text, summarize
from .violations import Severity, Violation

__all__ = [
    "ContractViolationError",
    "LintEngine",
    "ProjectRule",
    "Rule",
    "Severity",
    "Violation",
    "accepts_arrays",
    "check_array",
    "concurrency",
    "contracts_enabled",
    "filter_baselined",
    "format_github",
    "format_json",
    "format_text",
    "load_baseline",
    "register_rule",
    "registered_rules",
    "returns_array",
    "rules",
    "set_contracts_enabled",
    "summarize",
    "write_baseline",
]
