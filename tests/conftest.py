"""Shared pytest hooks.

The acceptance suite records one verdict per criterion here; the terminal
summary prints them after the run, outside pytest's output capture, so
the pass/fail lines always appear in the log.

``polyfam`` keeps each parameter set's record, its recurrence data and
B_n family, and ``operators`` its operators, for the life of the process.
An autouse fixture empties those caches after each test, so recurrence
data or a family built while a test had patched ``polyfam.bi_coefficients``
or ``polyfam._shifts`` never reaches a later test at the same parameter set.

``mutate_polyfam`` replaces a function of ``polyfam`` by its own source with
one text change: the source mutants of ``test_reptheory`` and ``test_cli``.
"""

import inspect
import textwrap

import pytest

from biwkit import operators, polyfam

acceptance_verdicts = {}


def shared_caches():
    """Every ``functools`` cache of ``polyfam`` and ``operators``."""
    return {obj for module in (polyfam, operators) for obj in vars(module).values()
            if hasattr(obj, "cache_clear")}


def mutate_polyfam(monkeypatch, owner, name, old, new):
    """Replace ``owner.name``, a function of ``polyfam`` or a method of one of its classes, by
    its own source with the one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, old
    namespace = dict(vars(polyfam))
    exec(compile(source.replace(old, new), polyfam.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


@pytest.fixture(autouse=True)
def _clear_shared_caches():
    yield
    for cache in shared_caches():
        cache.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(acceptance_verdicts):
        passed, description = acceptance_verdicts[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[acceptance {number:02d}] {verdict}: {description}")
