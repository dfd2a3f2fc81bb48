"""Per-layer tracing of flagoct from outside the package.

The tracer replaces the public functions and methods of each flagoct module
with wrappers that count calls and time them.  It wraps every binding of a
target, not only the one in the defining module: a name imported elsewhere
(``exact_divide`` in ``gkm`` and ``ktheory``, ``matrix_rank`` in ``gkm``,
``check_membership`` and ``parse_and_evaluate`` in ``cli``), a module-level
alias, a value in a module-level dict (the ``SUITES`` table) and a second
class attribute bound to the same function (``__rmul__ = __mul__``).

Each timed call is a span.  Spans nest on one stack; a span's self time is
its duration minus the time its child spans cover.  Spans are aggregated per
target as they close (calls, self seconds, inclusive seconds) instead of
being stored one by one: a verify run opens several million of them.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

# mode: "timed" counts and times; "count" only counts (used where the callee
# is so small that timing it would cost more than the call); "hits" also
# counts non-None results; "elements" also sums len(result); "inclusive"
# reports inclusive rather than self time.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("scalar.fraction_new", "fractions", "Fraction.__new__", "count"),
    ("octonion.mul", "flagoct.octonion", "Octonion.__mul__", "timed"),
    ("jordan.product", "flagoct.jordan", "JordanMatrix.jordan", "timed"),
    ("jordan.hat_operator", "flagoct.jordan", "hat_operator", "timed"),
    ("jordan.tilde_operator", "flagoct.jordan", "tilde_operator", "timed"),
    ("jordan.op27_mul", "flagoct.jordan", "LinearOperator27.__mul__", "timed"),
    ("weyl.generate_group", "flagoct.weyl", "generate_group", "elements"),
    ("weyl.element_mul", "flagoct.weyl", "WeylElement.__mul__", "timed"),
    ("poly.mul", "flagoct.poly", "Polynomial.__mul__", "timed"),
    ("poly.substitute", "flagoct.poly", "Polynomial.substitute", "timed"),
    ("poly.exact_divide", "flagoct.poly", "exact_divide", "hits"),
    ("poly.leading_exponents", "flagoct.poly", "Polynomial.leading_exponents", "count"),
    ("groebner.buchberger", "flagoct.groebner", "buchberger", "timed"),
    ("groebner.normal_form", "flagoct.groebner", "normal_form", "timed"),
    ("cohomology.matrix_rank", "flagoct.cohomology", "matrix_rank", "timed"),
    ("gkm.check_membership", "flagoct.gkm", "check_membership", "timed"),
    ("gkm.free_rank_check", "flagoct.gkm", "free_rank_check", "timed"),
    ("gkm.realize_in_bt", "flagoct.gkm", "realize_in_bt", "timed"),
    ("ktheory.x_character", "flagoct.ktheory", "x_character", "timed"),
    ("ktheory.weyl_act", "flagoct.ktheory", "weyl_act", "timed"),
    ("ktheory.char_mul", "flagoct.ktheory", "Character.__mul__", "timed"),
    ("ktheory.char_quotient", "flagoct.ktheory", "char_quotient", "hits"),
    ("ktheory.expand_x_polynomial", "flagoct.ktheory", "expand_x_polynomial", "timed"),
    ("ktheory.to_x_polynomial", "flagoct.ktheory", "to_x_polynomial", "timed"),
    ("parsing.parse_and_evaluate", "flagoct.parsing", "parse_and_evaluate", "timed"),
) + tuple(
    (f"suites.{name}", "flagoct.suites", f"suite_{name}", "inclusive")
    for name in ("octonion", "jordan", "roots", "cohomology", "gkm", "ktheory")
)


def _original(module_name: str, path: str) -> Callable:
    owner = sys.modules[module_name]
    if "." not in path:
        return getattr(owner, path)
    cls_name, attr = path.split(".")
    raw = getattr(owner, cls_name).__dict__[attr]
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def target_code_keys() -> Dict[str, Tuple[str, int, str]]:
    """cProfile's key (file, first line, name) of every target's code."""
    out = {}
    for name, module_name, path, _ in TARGETS:
        code = _original(module_name, path).__code__
        out[name] = (code.co_filename, code.co_firstlineno, code.co_name)
    return out


class Stat:
    __slots__ = ("calls", "self_s", "inclusive_s", "hits", "elements")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.hits = 0
        self.elements = 0

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


def _counting(fn: Callable, stat: Stat) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stat.calls += 1
        return fn(*args, **kwargs)

    return wrapper


def _spanning(fn: Callable, stat: Stat, stack: List[float], mode: str) -> Callable:
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stat.calls += 1
        stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stat.self_s += elapsed - stack.pop()
            stat.inclusive_s += elapsed
            stack[-1] += elapsed
        if mode == "hits" and result is not None:
            stat.hits += 1
        elif mode == "elements":
            stat.elements += len(result)
        return result

    return wrapper


class Tracer:
    """Install with :meth:`install`, read with :meth:`snapshot`, undo with
    :meth:`uninstall`.  The flagoct modules must be imported first."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {name: Stat() for name, *_ in TARGETS}
        self._stack: List[float] = [0.0]
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "flagoct" or name.startswith("flagoct.")
        ]
        for name, module_name, path, mode in TARGETS:
            stat = self.stats[name]
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                self._wrap_class(getattr(owner, cls_name), attr, stat, mode)
            else:
                original = getattr(owner, path)
                self._rebind(modules, original, self._wrapper(original, stat, mode))

    def _wrapper(self, fn: Callable, stat: Stat, mode: str) -> Callable:
        if mode == "count":
            return _counting(fn, stat)
        return _spanning(fn, stat, self._stack, mode)

    def _wrap_class(self, cls: type, attr: str, stat: Stat, mode: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):  # Fraction.__new__
            wrapped = staticmethod(self._wrapper(raw.__func__, stat, mode))
        else:
            wrapped = self._wrapper(raw, stat, mode)
        aliases = [key for key, value in cls.__dict__.items() if value is raw]
        for key in aliases:
            setattr(cls, key, wrapped)
            self._undo.append(functools.partial(setattr, cls, key, raw))

    def _rebind(self, modules, original: Callable, wrapper: Callable) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(functools.partial(setattr, module, key, original))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append(functools.partial(value.__setitem__, dkey, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.__init__()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {name: stat.as_dict() for name, stat in self.stats.items()}


def layer_metrics(raw: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Every per-layer metric the benchmark reports, from one snapshot."""
    out: Dict[str, float] = {}
    modes = {name: mode for name, _, _, mode in TARGETS}
    for name, stat in raw.items():
        mode = modes[name]
        if mode == "count" and name == "scalar.fraction_new":
            out[name] = stat["calls"]
            continue
        out[f"{name}_calls"] = stat["calls"]
        if mode == "count":
            continue
        out[f"{name}_s"] = stat["inclusive_s"] if mode == "inclusive" else stat["self_s"]
        if mode == "hits":
            out[f"{name}_hit_ratio"] = stat["hits"] / stat["calls"] if stat["calls"] else 0.0
        if mode == "elements":
            out["weyl.group_elements"] = stat["elements"]
    return out
