"""Per-layer tracing from outside the package.

The traced run wraps the public functions of each module (and the ``+ - * /``
operators of ``GenFun`` / ``FracPoly``) before the job starts.  Every wrapped
call records a span ``[name, parent span index, start, end]`` in memory; a
layer's self time is the duration of its spans minus the part covered by
their direct child spans, so time spent in unwrapped helpers is charged to
the nearest wrapped caller.  Layer names are the package's module names.

Nothing under ``src/`` is changed: wrappers replace module attributes (every
``from .x import f`` binding too) and class attributes in this process only.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from typing import Callable, Dict, List, Optional

ARITH_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
SYMBOLIC_METHODS = ("eval_t_as_p_power", "substitute_t_power", "series_coefficients")
SYMBOLIC_FUNCTIONS = ("rewrite_in_q", "check_inversion_symmetry")
RECURSION = ("disc_gen_fun", "branch_sum")
ASSEMBLY = ("splitting_density", "monic_density", "centered_monic_density", "density_gen_fun")
CLI_FUNCTIONS = (
    "main", "run", "job_from_args", "build_parser", "parse_sigma",
    "run_compute", "run_table", "run_verify", "run_oracle", "run_conjecture",
)

# per_layer metrics and their units, in the order BENCHMARK.json lists them
METRICS = {
    "symbolic.arith.calls": "count",
    "symbolic.arith.self_s": "s",
    "symbolic.eval_t_as_p_power.self_s": "s",
    "symbolic.substitute_t_power.self_s": "s",
    "symbolic.rewrite_in_q.self_s": "s",
    "symbolic.check_inversion_symmetry.self_s": "s",
    "symbolic.series_coefficients.self_s": "s",
    "splitting.enumerate_plans.calls": "count",
    "splitting.plans": "count",
    "splitting.plan_weight.calls": "count",
    "splitting.plan_weight.nonzero_ratio": "ratio",
    "splitting.self_s": "s",
    "engine.disc_gen_fun.calls": "count",
    "engine.disc_gen_fun.computed": "count",
    "engine.disc_gen_fun.hit_ratio": "ratio",
    "engine.recursion.max_depth": "count",
    "engine.branch_sum.calls": "count",
    "engine.recursion.self_s": "s",
    "engine.assembly.self_s": "s",
    "oracle.exact_disc_masses.calls": "count",
    "oracle.exact_disc_masses.self_s": "s",
    "oracle.patterns": "count",
    "oracle.patterns_per_s": "1/s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.run_s": "s",
}


def oracle_patterns(sigma, b, c_max: int, p: int) -> int:
    """Digit patterns times isomorphism classes that ``exact_disc_masses``
    enumerates, from its documented truncation: a common depth N with
    2N/E > c_max, each component keeping slots b_i .. ceil(N e_i / E) - 1."""
    comps = sigma.components
    big_e = math.lcm(*(e for e, _ in comps))
    n_common = big_e * c_max // 2 + 1
    patterns = 1
    for (e, f), bi in zip(comps, b):
        n_slots = max(-(-n_common * e // big_e), bi)
        patterns *= (p**f) ** (n_slots - bi) * math.gcd(p**f - 1, e)
    return patterns


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.plans = 0
        self.nonzero_weights = 0
        self.patterns = 0
        self._seen: Dict[int, object] = {}
        self.computed = 0

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # -- result hooks ---------------------------------------------------------

    def _on_plans(self, args, kwargs, result) -> None:
        self.plans += len(result)

    def _on_weight(self, args, kwargs, result) -> None:
        self.nonzero_weights += not result.is_zero

    def _on_disc_gen_fun(self, args, kwargs, result) -> None:
        # a memo hit hands back an object returned before; a computed value is new
        if id(result) not in self._seen:
            self._seen[id(result)] = result
            self.computed += 1

    def _on_exact(self, sig: inspect.Signature):
        def hook(args, kwargs, result) -> None:
            a = sig.bind(*args, **kwargs).arguments
            self.patterns += oracle_patterns(a["sigma"], a["b"], a["c_max"], a["p"])
        return hook

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        from padicdens import cli, engine, oracle, splitting, symbolic, verify

        hooks = {
            "splitting.enumerate_plans": self._on_plans,
            "splitting.plan_weight": self._on_weight,
            "engine.disc_gen_fun": self._on_disc_gen_fun,
            "oracle.exact_disc_masses": self._on_exact(inspect.signature(oracle.exact_disc_masses)),
        }
        targets = {}
        for mod, names in (
            (engine, RECURSION + ASSEMBLY),
            (symbolic, SYMBOLIC_FUNCTIONS),
            (oracle, ("exact_disc_masses",)),
            (cli, CLI_FUNCTIONS),
            (splitting, _public_functions(splitting)),
            (verify, _public_functions(verify)),
        ):
            layer = mod.__name__.rsplit(".", 1)[1]
            for n in names:
                targets[getattr(mod, n)] = f"{layer}.{n}"
        for fn, name in targets.items():
            wrapped = self.wrap(name, fn, hooks.get(name))
            for mod in [m for k, m in sys.modules.items() if k.startswith("padicdens")]:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
        for cls in (symbolic.GenFun, symbolic.FracPoly):
            for op in ARITH_OPS:
                setattr(cls, op, self.wrap(f"symbolic.arith.{op}", getattr(cls, op)))
        for m in SYMBOLIC_METHODS:
            setattr(symbolic.GenFun, m, self.wrap(f"symbolic.{m}", getattr(symbolic.GenFun, m)))

    # -- derivation ---------------------------------------------------------------

    def self_times(self) -> Dict[str, list]:
        """{span name: [calls, total_s, self_s]}."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, list] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return out

    def max_recursion_depth(self) -> int:
        depth = [0] * len(self.spans)
        for i, (name, parent, _, _) in enumerate(self.spans):
            depth[i] = (depth[parent] if parent >= 0 else 0) + (name == "engine.disc_gen_fun")
        return max(depth, default=0)

    def metrics(self, run_s: float, output_bytes: int) -> Dict[str, float]:
        agg = self.self_times()

        def pick(pred, idx):
            total = sum(v[idx] for k, v in agg.items() if pred(k))
            return float(total) if idx else total

        def calls(name):
            return agg.get(name, [0, 0.0, 0.0])[0]

        def self_s(*names):
            return sum(agg.get(n, [0, 0.0, 0.0])[2] for n in names)

        dg_calls = calls("engine.disc_gen_fun")
        pw_calls = calls("splitting.plan_weight")
        exact_self = self_s("oracle.exact_disc_masses")
        m = {
            "symbolic.arith.calls": pick(lambda k: k.startswith("symbolic.arith."), 0),
            "symbolic.arith.self_s": pick(lambda k: k.startswith("symbolic.arith."), 2),
            "splitting.enumerate_plans.calls": calls("splitting.enumerate_plans"),
            "splitting.plans": self.plans,
            "splitting.plan_weight.calls": pw_calls,
            "splitting.plan_weight.nonzero_ratio": self.nonzero_weights / pw_calls if pw_calls else 0.0,
            "splitting.self_s": pick(lambda k: k.startswith("splitting."), 2),
            "engine.disc_gen_fun.calls": dg_calls,
            "engine.disc_gen_fun.computed": self.computed,
            "engine.disc_gen_fun.hit_ratio": 1 - self.computed / dg_calls if dg_calls else 0.0,
            "engine.recursion.max_depth": self.max_recursion_depth(),
            "engine.branch_sum.calls": calls("engine.branch_sum"),
            "engine.recursion.self_s": self_s(*(f"engine.{n}" for n in RECURSION)),
            "engine.assembly.self_s": self_s(*(f"engine.{n}" for n in ASSEMBLY)),
            "oracle.exact_disc_masses.calls": calls("oracle.exact_disc_masses"),
            "oracle.exact_disc_masses.self_s": exact_self,
            "oracle.patterns": self.patterns,
            "oracle.patterns_per_s": self.patterns / exact_self if exact_self else 0.0,
            "verify.self_s": pick(lambda k: k.startswith("verify."), 2),
            "cli.self_s": pick(lambda k: k.startswith("cli."), 2),
            "cli.output_bytes": output_bytes,
            "trace.run_s": run_s,
        }
        for n in SYMBOLIC_METHODS + SYMBOLIC_FUNCTIONS:
            m[f"symbolic.{n}.self_s"] = self_s(f"symbolic.{n}")
        return {k: m[k] for k in METRICS}


def _public_functions(mod) -> tuple:
    return tuple(
        n for n, v in vars(mod).items()
        if inspect.isfunction(v) and not n.startswith("_")
        and v.__module__ == mod.__name__ and not inspect.isgeneratorfunction(v)
    )
