"""Outside-in instrumentation of the hvsparse layers.

Modules such as ``solvers``, ``tuning`` and ``expcli`` bind names like
``prox_sql1``, ``hv_solve`` and ``as_vector`` at import, so patching the
defining module alone would time nothing. Instead every public function
defined in the package is replaced at every module attribute bound to it,
and every public method of every class the package defines is replaced on
its class. A callable added to the package later is picked up by the same
enumeration, without editing the benchmark.

Two instruments use this:

* ``SolveLog`` wraps only the solver entry points (``solvers.*_solve``) and
  records runtime, iterations and termination of each solve. It costs one
  clock pair per solve, so it stays on in the untraced run.
* ``LayerTracer`` wraps every public callable and aggregates spans by name:
  calls, inclusive time, and time covered by child spans. A span's self time
  is its inclusive time minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

ROOT = "<bench>"


def package_modules(package: str) -> dict:
    """Imported modules of ``package`` (the package itself included)."""
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))}


def public_callables(package: str):
    """Yield (owner, attribute, callable, span name) for every wrap target.

    Owners are classes for methods; functions get ``owner=None`` and are
    patched wherever they are bound (see ``Patcher.replace_everywhere``).
    The span name is ``<module>.<function>`` or ``<module>.<Class>.<method>``
    with the module's last dotted component.
    """
    mods = package_modules(package)
    for modname, mod in sorted(mods.items()):
        short = modname.rsplit(".", 1)[-1]
        for name, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != modname or name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__name__ == name:
                yield None, name, obj, f"{short}.{name}"
            elif inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if (attr.startswith("_") or not inspect.isfunction(member)
                            or getattr(member, "__isabstractmethod__", False)):
                        continue
                    yield obj, attr, member, f"{short}.{name}.{attr}"


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self, package: str):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, fn, new) -> None:
        """Rebind every module attribute of the package that is ``fn``."""
        for mod in package_modules(self.package).values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.replace(mod, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class SolveLog:
    """Per-solve runtime, iterations and termination of every solver call.

    A solve that raises (the overflow path) is logged with zero iterations
    and termination ``raised:<ExceptionName>``.
    """

    def __init__(self, package: str = "hvsparse"):
        self.package = package
        self._patcher = Patcher(package)
        self.runtime_s: list[float] = []
        self.iterations: list[int] = []
        self.termination: list[str] = []

    def install(self) -> None:
        for owner, name, fn, _ in list(public_callables(self.package)):
            if owner is None and fn.__module__.endswith(".solvers") and name.endswith("_solve"):
                self._patcher.replace_everywhere(fn, self._wrap(fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn):
        runtime, iters, term = self.runtime_s, self.iterations, self.termination
        clock = time.perf_counter

        @functools.wraps(fn)
        def logged(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                runtime.append(clock() - start)
                iters.append(0)
                term.append(f"raised:{type(exc).__name__}")
                raise
            runtime.append(clock() - start)
            iters.append(int(getattr(result, "iterations", 0)))
            term.append(str(getattr(result, "termination", "")))
            return result

        return logged


class LayerTracer:
    """Span aggregation around every public callable of a package.

    ``stats[name]`` is ``[calls, inclusive_s, child_s, {parent: calls}]``.
    Time spent outside every span (the benchmark's own code) accrues to
    nothing; ``covered_s`` is the time inside top-level spans.
    """

    def __init__(self, package: str = "hvsparse"):
        self.package = package
        self._patcher = Patcher(package)
        self.stats: dict[str, list] = {}
        self._keys = [ROOT]
        self._child = [0.0]

    @property
    def covered_s(self) -> float:
        return self._child[0]

    def install(self) -> None:
        for owner, attr, fn, name in list(public_callables(self.package)):
            wrapped = self._wrap(fn, name)
            if owner is None:
                self._patcher.replace_everywhere(fn, wrapped)
            else:
                self._patcher.replace(owner, attr, wrapped)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn, name: str):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, {}])
        parents = rec[3]
        keys, child = self._keys, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = keys[-1]
            keys.append(name)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                keys.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += child.pop()
                child[-1] += elapsed
                parents[parent] = parents.get(parent, 0) + 1

        return traced

    def self_s(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[1] - rec[2] if rec else 0.0

    def calls(self, name: str, parent: str | None = None) -> int:
        rec = self.stats.get(name)
        if rec is None:
            return 0
        return rec[0] if parent is None else rec[3].get(parent, 0)

    def inclusive_s(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[1] if rec else 0.0
