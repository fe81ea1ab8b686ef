"""Run one lattes-forge CLI command with a span around every traced layer call.

    python3 bench/trace_child.py SPANS_JSON OP_ID CLI_ARG...

The wrappers are installed from here, never in ``src/``.  Every
``lattes_forge`` module that binds a traced function gets the wrapper,
because ``lattes``, ``perturbation`` and ``cli`` call through their own
``from .dynamics import ...`` names.  ``RationalMapCoeffs.__post_init__`` is
wrapped on the class, so the ``dataclasses.replace`` interpolants built in
``continue_cycle`` are counted as well.

Spans stay in memory (name, start, end, parent span, op id) and are written
as one JSON document when the command returns; the harness derives self
time from them.  The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# layer module -> public functions timed in the traced run
TRACED = {
    "elliptic": ("theta_map", "half_periods", "theta_data"),
    "lattes": ("build_rational_map",),
    "dynamics": ("eval_map", "continue_cycle", "find_cycle", "classify_orbit",
                 "pullback_branch", "critical_points", "julia_render"),
    "perturbation": ("solve_gamma_k", "solve_collision", "make_marked_point",
                     "certify_strictly_pcf", "verify_lemma3", "convergence_table"),
}


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _spec_key(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    return (spec.gamma.gamma, spec.a, spec.case_tag)


# span name -> function of the call's arguments giving the key whose distinct
# values are counted (distinct_ratio = distinct keys / calls)
KEYS = {
    "elliptic.half_periods": lambda args, kwargs: _arg(args, kwargs, 0, "gamma"),
    "lattes.build_rational_map": _spec_key,
}

# span name -> function of (args, kwargs, result) giving numbers stored on the span
ATTRS = {
    "perturbation.solve_collision": lambda args, kwargs, out: {"iters": out.newton_iters},
    "perturbation.convergence_table": lambda args, kwargs, out: {
        "rows_failed": sum(row.status != "ok" for row in out.rows)},
    "dynamics.julia_render": lambda args, kwargs, out: {
        "pixel_iters": _arg(args, kwargs, 1, "width") * _arg(args, kwargs, 2, "height")
        * _arg(args, kwargs, 3, "max_iter", 40)},
}


class SpanLog:
    """In-memory spans of one op; parent is the index of the enclosing span or -1."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.ok: list[bool] = []
        self.attrs: dict[int, dict] = {}
        self.keys: dict[str, set] = {}
        self._open = [-1]

    def wrap(self, name: str, fn):
        key_fn = KEYS.get(name)
        attr_fn = ATTRS.get(name)
        keys = self.keys.setdefault(name, set()) if key_fn else None

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self.ok.append(False)
            self._open.append(idx)
            if keys is not None:
                keys.add(key_fn(args, kwargs))
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()
            self.ok[idx] = True
            if attr_fn is not None:
                self.attrs[idx] = attr_fn(args, kwargs, out)
            return out

        return traced

    def document(self) -> dict:
        return {
            "op_id": self.op_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "ok": self.ok,
            "attrs": {str(i): a for i, a in self.attrs.items()},
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def install(log: SpanLog):
    """Wrap the traced functions in every loaded lattes_forge module; returns the traced cli.main."""
    import lattes_forge  # noqa: F401  (loads every layer module)
    import lattes_forge.cli as cli
    from lattes_forge.lattes import RationalMapCoeffs

    modules = [m for n, m in list(sys.modules.items())
               if n == "lattes_forge" or n.startswith("lattes_forge.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"lattes_forge.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            wrapped = log.wrap(f"{layer}.{fname}", orig)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is orig]:
                    setattr(module, attr, wrapped)
    RationalMapCoeffs.__post_init__ = log.wrap("lattes.RationalMapCoeffs",
                                               RationalMapCoeffs.__post_init__)
    return log.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    log = SpanLog(op_id)
    traced_main = install(log)
    try:
        return traced_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(log.document(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
