"""Spans recorded from outside krflow, and the per-layer metrics folded from them.

A traced pass rebinds public krflow names to timing wrappers: a module
attribute (``krflow.autodiff.matmul``), a class attribute
(``Tensor.backward``, ``ParamStore.save``) or the name an importing module
bound (``krflow.cli.solve_darcy``).  Callers look these names up at call
time, so the spans see every call while nothing under ``src/`` changes.
``uninstall`` puts the original objects back.

A span is ``[name, start, end, parent, payload]``; spans stay in memory
until the pass ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

import stats

# op kind -> function name in krflow.autodiff; only calls that build tape
# nodes (some argument is a Tensor) are recorded.  div, log, softplus and
# slice are left out: no workload's models build them.
OP_KINDS = {
    "matmul": "matmul", "add": "add", "mul": "mul", "sum": "sum_", "exp": "exp",
    "tanh": "tanh", "relu": "relu", "clip": "clip", "reshape": "reshape",
    "take_cols": "take_cols", "concat": "concat", "fixed_conv2d": "fixed_conv2d",
}

STAGES = ("generate-data", "train-vae", "train-surrogate", "infer-krnet", "infer-mcmc")

# the training loop each CLI stage runs
LOOP_OF_STAGE = {"train_vae": "vae", "train_surrogate": "surrogate", "infer_krnet": "flow"}

# minimal memory traffic of one Adam update per scalar: p, g, m, v read and
# p, m, v written, float64 each (computed from sizes, not measured)
ADAM_BYTES_PER_SCALAR = 7 * 8


def stage_key(stage: str) -> str:
    return stage.replace("-", "_")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------------

    def timed(self, name, fn, payload=None):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(index)
            if payload is not None:
                self.spans[index][4] = payload(args, out)
            return out

        return wrapper

    def timed_op(self, name, fn, tensor_type):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for arg in args:
                if isinstance(arg, tensor_type) or (
                        isinstance(arg, (list, tuple))
                        and any(isinstance(p, tensor_type) for p in arg)):
                    index = begin(name)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        end(index)
            return fn(*args, **kwargs)

        return wrapper

    def timed_numpy_path(self, name, fn, tensor_type):
        """Record under ``name`` when the call ran as plain numpy, else ``name.tape``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(index)
            first = out[0] if isinstance(out, tuple) else out
            if isinstance(first, tensor_type):
                self.spans[index][0] = name + ".tape"
            return out

        return wrapper

    def timed_pcn(self, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(log_like, *args, **kwargs):
            index = begin("inference.pcn")
            try:
                chain = fn(self.timed("inference.loglike", log_like), *args, **kwargs)
            finally:
                end(index)
            self.spans[index][4] = chain
            return chain

        return wrapper

    # -- installation ------------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        """Point ``owner.attr`` (or ``owner[attr]`` for a dict) at ``wrapper``."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        from krflow import autodiff, cli, darcy, grf, inference, nets, params, surrogate, vae

        tensor = autodiff.Tensor
        for kind, attr in OP_KINDS.items():
            self._rebind(autodiff, attr,
                         self.timed_op(f"op.{kind}", getattr(autodiff, attr), tensor))
        # the dense stacks call their activation through this table
        for kind in nets.ACTIVATIONS:
            self._rebind(nets.ACTIVATIONS, kind,
                         self.timed_op(f"op.{kind}", nets.ACTIVATIONS[kind], tensor))
        self._rebind(autodiff, "evaluate_with_gradients",
                     self.timed("ad.evaluate", autodiff.evaluate_with_gradients))
        self._rebind(tensor, "backward", self.timed("ad.backward", tensor.backward))

        for module in (vae, surrogate, inference):
            self._rebind(module, "adam_step", self.timed(
                "params.adam", module.adam_step, lambda a, out: a[0].n_scalars()))
        checkpoint_bytes = lambda a, out: os.path.getsize(a[1])  # noqa: E731
        store = params.ParamStore
        self._rebind(store, "save", self.timed("params.checkpoint", store.save,
                                                checkpoint_bytes))
        self._rebind(store, "load", classmethod(self.timed(
            "params.checkpoint", vars(store)["load"].__func__, checkpoint_bytes)))

        for module in (vae, inference):
            self._rebind(module, "decode_batch", self.timed_numpy_path(
                "vae.decode", module.decode_batch, tensor))
        for module in (surrogate, inference):
            self._rebind(module, "surrogate_forward_batch", self.timed_numpy_path(
                "surrogate.forward", module.surrogate_forward_batch, tensor))
        self._rebind(cli, "surrogate_relative_error", self.timed(
            "surrogate.fv_check", cli.surrogate_relative_error))
        self._rebind(inference, "krnet_inverse", self.timed_numpy_path(
            "flow.sample", inference.krnet_inverse, tensor))

        for module in (inference, cli):
            self._rebind(module, "pcn_mcmc", self.timed_pcn(module.pcn_mcmc))
        for attr in ("posterior_moments", "posterior_moments_from_states"):
            self._rebind(cli, attr, self.timed("inference.moments", getattr(cli, attr)))

        unknowns = lambda a, out: a[0].shape[0] * (a[0].shape[1] - 2)  # noqa: E731
        for module in (darcy, cli, surrogate):
            self._rebind(module, "solve_darcy", self.timed(
                "darcy.solve", module.solve_darcy, unknowns))
        for module in (grf, cli):
            self._rebind(module, "truncated_kle", self.timed(
                "grf.kle", module.truncated_kle, lambda a, out: out.d_kl))
        self._rebind(cli, "generate_prior_dataset", self.timed(
            "grf.dataset", cli.generate_prior_dataset))
        for attr in ("save_dataset", "load_dataset"):
            self._rebind(cli, attr, self.timed("grf.dataset_io", getattr(cli, attr)))

        for attr in ("save_field_csv", "save_field_pgm", "write_json", "read_json",
                     "load_field_csv"):
            self._rebind(cli, attr, self.timed("report.io", getattr(cli, attr)))
        for module in (vae, surrogate, inference):
            self._rebind(module, "write_loss_curve", self.timed(
                "report.io", module.write_loss_curve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced pass, plus tape nodes by loop and op kind."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    stage: list[str | None] = [None] * n
    evaluate = [-1] * n
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            stage[i], evaluate[i] = stage[parent], evaluate[parent]
        if name.startswith("cli."):
            stage[i] = name[4:]
        elif name == "ad.evaluate":
            evaluate[i] = i
        by_name[name].append(i)

    def total_ms(name):
        return 1e3 * sum(dur[i] for i in by_name[name])

    m: dict[str, float] = {}
    nodes = {loop: Counter() for loop in LOOP_OF_STAGE.values()}
    for i in range(n):
        name = spans[i][0]
        if name.startswith("op.") and evaluate[i] >= 0:
            loop = LOOP_OF_STAGE.get(stage[evaluate[i]])
            if loop:
                nodes[loop][name[3:]] += 1

    for stage_name, loop in LOOP_OF_STAGE.items():
        evals = [i for i in by_name["ad.evaluate"] if stage[i] == stage_name]
        adams = [i for i in by_name["params.adam"] if stage[i] == stage_name]
        backward = defaultdict(float)
        for i in by_name["ad.backward"]:
            if evaluate[i] >= 0:
                backward[evaluate[i]] += dur[i]
        step = [1e3 * (dur[e] + dur[a]) for e, a in zip(evals, adams)]
        m[f"{loop}.step_ms"] = stats.median(step)
        m[f"{loop}.step_ms_tail"] = stats.tail(step)[0]
        m[f"{loop}.forward_ms"] = stats.median(1e3 * (dur[e] - backward[e]) for e in evals)
        m[f"{loop}.backward_ms"] = stats.median(1e3 * backward[e] for e in evals)
        m[f"{loop}.optimizer_ms"] = stats.median(1e3 * dur[a] for a in adams)
        m[f"{loop}.steps"] = len(evals)
        m[f"autodiff.nodes_per_step.{loop}"] = (
            sum(nodes[loop].values()) / len(evals) if evals else 0.0)

    for kind in OP_KINDS:
        ops = by_name[f"op.{kind}"]
        m[f"autodiff.op.{kind}.calls"] = len(ops)
        m[f"autodiff.op.{kind}.self_ms"] = 1e3 * sum(dur[i] - child[i] for i in ops)

    scalars = sum(spans[i][4] for i in by_name["params.adam"])
    m["params.adam_ms"] = total_ms("params.adam")
    m["params.adam_calls"] = len(by_name["params.adam"])
    m["params.adam_scalars"] = scalars
    m["params.adam_bytes_computed"] = ADAM_BYTES_PER_SCALAR * scalars
    m["params.checkpoint_ms"] = total_ms("params.checkpoint")
    m["params.checkpoint_bytes"] = sum(spans[i][4] for i in by_name["params.checkpoint"])

    m["vae.decode_ms"] = total_ms("vae.decode")
    m["vae.decode_calls"] = len(by_name["vae.decode"])
    m["surrogate.numpy_forward_ms"] = total_ms("surrogate.forward")
    m["surrogate.numpy_forward_calls"] = len(by_name["surrogate.forward"])
    m["surrogate.fv_check_ms"] = total_ms("surrogate.fv_check")
    m["flow.sample_ms"] = total_ms("flow.sample")

    chains = by_name["inference.pcn"]
    steps = sum(spans[i][4].total_steps for i in chains)
    accepted = sum(spans[i][4].accepted_count for i in chains)
    ess = sum(stats.effective_sample_size(spans[i][4].states) for i in chains)
    chain_ms = 1e3 * sum(dur[i] for i in chains)
    m["inference.pcn_step_ms"] = chain_ms / steps if steps else 0.0
    m["inference.pcn_steps"] = steps
    m["inference.pcn_acceptance"] = accepted / steps if steps else 0.0
    m["inference.pcn_ess_per_step"] = ess / steps if steps else 0.0
    m["inference.ms_per_ess"] = chain_ms / ess if ess else 0.0
    m["inference.loglike_ms"] = total_ms("inference.loglike")
    m["inference.loglike_calls"] = len(by_name["inference.loglike"])
    m["inference.moments_ms"] = total_ms("inference.moments")

    solves = [1e3 * dur[i] for i in by_name["darcy.solve"]]
    m["darcy.solve_ms"] = stats.median(solves)
    m["darcy.solve_ms_tail"] = stats.tail(solves)[0]
    m["darcy.solves"] = len(solves)
    m["darcy.unknowns"] = max((spans[i][4] for i in by_name["darcy.solve"]), default=0)

    m["grf.kle_ms"] = total_ms("grf.kle")
    m["grf.kle_calls"] = len(by_name["grf.kle"])
    m["grf.kle_modes"] = sum(spans[i][4] for i in by_name["grf.kle"])
    m["grf.dataset_ms"] = total_ms("grf.dataset")
    m["grf.dataset_io_ms"] = total_ms("grf.dataset_io")

    for stage_name in STAGES:
        key = stage_key(stage_name)
        m[f"cli.{key}.self_ms"] = 1e3 * sum(dur[i] - child[i] for i in by_name[f"cli.{key}"])
    m["report.io_ms"] = total_ms("report.io")
    m["report.io_calls"] = len(by_name["report.io"])
    return m, {loop: dict(sorted(c.items())) for loop, c in nodes.items()}
