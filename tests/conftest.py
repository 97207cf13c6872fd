"""Shared pytest hooks.

The acceptance suite records one verdict per criterion here; the terminal
summary prints them after the run, outside pytest's output capture, so
the pass/fail lines always appear in the log.

``polyfam`` keeps each parameter set's record, its recurrence data and
B_n family, and ``operators`` its operators, for the life of the process.
An autouse fixture empties those caches after each test, so recurrence
data or a family built while a test had patched ``polyfam.bi_coefficients``
or ``polyfam._shifts`` never reaches a later test at the same parameter set.

``mutate_polyfam`` replaces a function of ``polyfam``, or a method or lazily
built member of one of its classes, by its own source with one text change:
the source mutants of ``test_reptheory``, ``test_polyfam`` and ``test_cli``.
"""

import functools
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
    """Replace ``owner.name``, a function of ``polyfam`` or a method or ``cached_property`` of
    one of its classes, by its own source with the one occurrence of ``old`` replaced by ``new``.

    A ``cached_property`` is read from its ``func``, whose source starts at the decorator, so
    the mutant is a ``cached_property`` too; it is bound to ``name`` as the class body would."""
    member = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(getattr(member, "func", member)))
    assert source.count(old) == 1, old
    namespace = dict(vars(polyfam))
    exec(compile(source.replace(old, new), polyfam.__file__, "exec"), namespace)
    mutant = namespace[name]
    if isinstance(mutant, functools.cached_property):
        mutant.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, mutant)


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
