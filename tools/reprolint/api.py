"""API-hygiene rules: study drivers expose one consistent execution surface.

Every public study driver (``run_*`` / ``execute_*``) resolves its worker
count, executor lane and host list from the same environment variables
(``REPRO_*``), and each grew up in a different PR — which is exactly how
surfaces drift.  Two rules pin the convention:

* ``api-executor-param`` — a public module-level driver that accepts
  ``workers=`` must also accept ``executor=`` and ``pool=``, so every
  driver can be pointed at any lane (inline/process/remote) and can
  reuse a shared pool;
* ``api-env-doc`` — the driver's docstring must name the environment
  variables its parameters fall back to: a ``workers`` parameter implies a
  ``REPRO_WORKERS`` mention, ``executor`` implies ``REPRO_EXECUTOR``, and
  a driver taking both ``executor`` and ``pool`` can be routed to the
  remote lane, so it must mention ``REPRO_HOSTS``.

Both rules apply only under :attr:`reprolint.engine.Config.api_paths` and
only to public (non-underscore) module-level functions.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from reprolint.engine import Config, Rule, SourceModule, Violation, register

_DRIVER_RE = re.compile(r"^(run|execute)_[a-z0-9_]+$")
_WORKERS_ENV_RE = re.compile(r"REPRO_WORKERS\b")


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = {arg.arg for arg in args.args}
    names.update(arg.arg for arg in args.posonlyargs)
    names.update(arg.arg for arg in args.kwonlyargs)
    return names


def _public_drivers(
    module: SourceModule,
) -> Iterable[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in module.tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _DRIVER_RE.match(node.name)
        ):
            yield node


@register
class ExecutorParamRule(Rule):
    id = "api-executor-param"
    family = "api"
    summary = "a worker-parallel driver is missing executor=/pool= params"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not module.in_scope(config.api_paths):
            return
        for func in _public_drivers(module):
            params = _param_names(func)
            if "workers" not in params:
                continue
            missing = sorted({"executor", "pool"} - params)
            if missing:
                yield self.violation(
                    module,
                    func,
                    f"public driver {func.name}() accepts workers= but not "
                    f"{', '.join(f'{name}=' for name in missing)}; every "
                    "worker-parallel driver must expose the full lane "
                    "surface",
                )


@register
class EnvDocRule(Rule):
    id = "api-env-doc"
    family = "api"
    summary = "a driver docstring omits the env vars its params fall back to"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not module.in_scope(config.api_paths):
            return
        for func in _public_drivers(module):
            params = _param_names(func)
            requirements: list[tuple[str, re.Pattern[str]]] = []
            if "workers" in params:
                requirements.append(("REPRO_WORKERS", _WORKERS_ENV_RE))
            if "executor" in params:
                requirements.append(
                    ("REPRO_EXECUTOR", re.compile(r"REPRO_EXECUTOR"))
                )
            if "executor" in params and "pool" in params:
                requirements.append(("REPRO_HOSTS", re.compile(r"REPRO_HOSTS")))
            if not requirements:
                continue
            docstring = ast.get_docstring(func) or ""
            for label, pattern in requirements:
                if not pattern.search(docstring):
                    yield self.violation(
                        module,
                        func,
                        f"public driver {func.name}() does not document its "
                        f"{label} fallback in the docstring",
                    )
