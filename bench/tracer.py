"""Per-module spans for a traced benchmark pass.

`install` wraps every function that a module of the traced package defines:
module-level functions, methods, properties, static and class methods.  Each
wrapper is put in place of the function wherever a traced module binds it, in
its own module as well as under names imported elsewhere, private names
included.  A wrapper opens a span only when its caller's module differs from
the module that defined the function, so a call counts once, at the module
boundary it crosses.  Functions a traced module passes as arguments into
another module (integrands, root-finder targets) are wrapped for the length
of that call, so a call back across the boundary is a span of the module the
callback belongs to.  Modules of the external packages (mpmath) that a traced
module imports are replaced there by a proxy whose callables open spans of
that package.  No function is named here, so functions a later change adds,
renames or merges stay traced.

Spans are kept in memory: layer, start, end, parent and whether the call
raised.  A pass's figures come from `summary`; the spans themselves are
written out by `write_spans`.  The tracer assumes calls come from one thread.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np


_CALLABLE = (types.FunctionType, types.MethodType, types.BuiltinFunctionType, type)


def _layer_name(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _count_complex(obj) -> int:
    """Complex numbers in a return value (arrays, tuples, dataclass records)."""
    if isinstance(obj, np.ndarray):
        return obj.size if np.iscomplexobj(obj) else 0
    if isinstance(obj, (complex, np.complexfloating)):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(_count_complex(x) for x in obj)
    fields = getattr(type(obj), "__dataclass_fields__", None)
    if fields:
        return sum(_count_complex(getattr(obj, name)) for name in fields)
    return 0


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, package: str, external: tuple[str, ...]):
        self.package = package
        self.external = external
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._wrapped: dict[int, object] = {}
        self.reset()

    # -- span store --------------------------------------------------------

    def reset(self) -> None:
        self.layer = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.values = 0          # complex numbers returned across a boundary into specfun
        self.nodes: dict[int, int] = {}   # callback points evaluated, by calling layer
        self._stack: list[int] = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _traced_module(self, name) -> bool:
        return name == self.package or (
            isinstance(name, str) and name.startswith(self.package + ".")
        )

    def _span(self, layer: int, fn, args, kwargs, count_values: bool):
        idx = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
        if count_values:
            self.values += _count_complex(out)
        return out

    # -- wrappers ----------------------------------------------------------

    def _wrap_callbacks(self, home: str, args, kwargs):
        """Wrap functions of other traced modules passed into module `home`."""
        def wrap(obj):
            if (
                isinstance(obj, types.FunctionType)
                and not hasattr(obj, "__bench_home__")
                and obj.__globals__.get("__name__") != home
                and self._traced_module(obj.__globals__.get("__name__"))
            ):
                return self._callback(obj)
            return obj

        return tuple(wrap(a) for a in args), {k: wrap(v) for k, v in kwargs.items()}

    def _callback(self, fn):
        home = fn.__globals__["__name__"]
        layer = self.layer_id(_layer_name(home))

        @functools.wraps(fn)
        def callback(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == home:
                return fn(*args, **kwargs)
            caller_layer = self.layer_id(_layer_name(str(caller)))
            if args:
                self.nodes[caller_layer] = self.nodes.get(caller_layer, 0) + int(np.size(args[0]))
            return self._span(layer, fn, args, kwargs, False)

        callback.__bench_home__ = home
        return callback

    def _function(self, fn):
        """The single wrapper of a function defined in a traced module."""
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        home = fn.__globals__["__name__"]
        layer = self.layer_id(_layer_name(home))
        count_values = _layer_name(home) == "specfun"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            args, kwargs = tracer._wrap_callbacks(home, args, kwargs)
            return tracer._span(layer, fn, args, kwargs, count_values)

        wrapper.__bench_home__ = home
        self._wrapped[key] = wrapper
        self._wrapped[id(wrapper)] = wrapper
        return wrapper

    def _external(self, fn, layer: int):
        key = id(fn)
        if key not in self._wrapped:
            tracer = self

            def wrapper(*args, **kwargs):
                return tracer._span(layer, fn, args, kwargs, False)

            self._wrapped[key] = wrapper
        return self._wrapped[key]

    def _proxy(self, module: types.ModuleType):
        tracer = self
        layer = self.layer_id(module.__name__.split(".")[0])

        class ExternalProxy(types.ModuleType):
            def __getattr__(self, name):
                attr = getattr(module, name)
                if isinstance(attr, _CALLABLE):
                    attr = tracer._external(attr, layer)
                return attr

        return ExternalProxy(module.__name__)

    def _wrap_class(self, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._function(attr))
            elif isinstance(attr, property):
                setattr(
                    cls,
                    name,
                    property(
                        *(self._function(f) if f is not None else None
                          for f in (attr.fget, attr.fset, attr.fdel)),
                        attr.__doc__,
                    ),
                )
            elif isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(self._function(attr.__func__)))

    def install(self) -> None:
        """Wrap every function of every loaded module of the traced package."""
        modules = [m for n, m in sorted(sys.modules.items()) if self._traced_module(n)]
        for mod in modules:
            self.layer_id(_layer_name(mod.__name__))
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj)
                elif (
                    isinstance(obj, types.FunctionType)
                    and obj.__globals__ is vars(mod)
                ):
                    self._function(obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in self._wrapped:
                    setattr(mod, name, self._wrapped[id(obj)])
                elif isinstance(obj, types.ModuleType) and obj.__name__.split(".")[0] in self.external:
                    setattr(mod, name, self._proxy(obj))
                elif (
                    isinstance(obj, _CALLABLE)
                    and str(getattr(obj, "__module__", "")).split(".")[0] in self.external
                ):
                    setattr(mod, name, self._external(obj, self.layer_id(obj.__module__.split(".")[0])))

    # -- figures -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer calls, self seconds and raises of the spans held."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        layer = np.frombuffer(self.layer, dtype=np.int8)[:n]
        raised = np.frombuffer(self.raised, dtype=np.int8)[:n]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for lid, name in enumerate(self.layers):
            sel = layer == lid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "self_s": float(np.sum(self_time[sel])),
                "raises": int(np.count_nonzero(raised[sel])),
                "nodes": self.nodes.get(lid, 0),
            }
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,layer,start_s,end_s,raised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.layers[self.layer[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{self.raised[i]}\n"
                )
