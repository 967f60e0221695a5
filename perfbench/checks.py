"""Answer checks that never touch timing, plus the per-run answers digest.

Three checks, all run after the measured window:

* per op (in ``workloads.valid_record``): an op that raises, answers with
  a non-200 status, or returns a non-finite or out-of-range estimate counts
  as failed;
* per run: the pooled relative error of the checked estimates against an
  exact reference must stay under a bound derived from the paper's
  Equation 12 (``repro.mcmc.bounds.epsilon_for_samples``): the
  reference-weighted mean of each op's own ε at its sample count and its
  target's µ, at failure probability ``BOUND_DELTA``, with each op's ε
  capped at ``EPS_CAP``.  Only ops whose ε is at most ``POOL_MAX_EPS``
  enter the pool: beyond that Equation 12 promises nothing (at 200 samples
  a degree-4 vertex of BA(2000, 3) has µ ≈ 700 and ε ≈ 80, and its chain
  misses the few sources that carry its dependency).  The cap keeps the
  bound below 1, so an estimator that answers 0, or twice the truth,
  fails the run.  Pooling makes this a run-level verdict, so one
  legitimately unlucky fixed-seed chain cannot fail an op.  The reference
  of an ``mh`` estimate is the value its Equation 7 read-out concentrates
  on, the π-weighted mean dependency ``Σδ² / (Σδ · (n-1))`` (see
  ``repro.mcmc.single``); every other estimate is compared with the exact
  betweenness, and joint-space ratio estimates with exact betweenness
  ratios;
* per checkpoint (mutate-serve, weighted-traffic): a warm answer must equal,
  bit for bit, the answer of a cold session on a copy of the graph it was
  computed against.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Failure probability fed to Equation 12 for the pooled-error bound.
BOUND_DELTA = 0.01
#: Largest relative error any one pooled op is allowed.
EPS_CAP = 0.5
#: Ops whose Equation 12 ε exceeds this are reported but not pooled.
POOL_MAX_EPS = 2.0
#: Factor the smoke test's corruption applies to every checked answer.
CORRUPT_FACTOR = 2.0
#: Sources per block of the exact reference sweep.
REFERENCE_BLOCK = 128


def exact_reference(graph):
    """Exact betweenness, Equation 7 target and µ of every vertex.

    One dependency pass per source, in blocks.  Per target column: the sum
    gives betweenness ('paper' normalisation), the sum of squares over the
    sum the π-weighted mean, and the maximum over the mean µ
    (Inequality 11).
    """
    import numpy as np

    from repro.shortest_paths.batch import batch_source_dependencies

    csr = graph.csr()
    n = csr.number_of_vertices()
    total = np.zeros(n)
    squares = np.zeros(n)
    peak = np.zeros(n)
    for begin in range(0, n, REFERENCE_BLOCK):
        block = batch_source_dependencies(csr, list(range(begin, min(n, begin + REFERENCE_BLOCK))))
        total += block.sum(axis=0)
        squares += (block * block).sum(axis=0)
        np.maximum(peak, block.max(axis=0), out=peak)
    positive = total > 0
    bc = total / (n * (n - 1))
    pi_mean = np.divide(squares, total * (n - 1), out=np.zeros(n), where=positive)
    mu = np.divide(peak * n, total, out=np.full(n, math.inf), where=positive)
    vertices = csr.vertices
    return {
        name: {vertices[i]: float(values[i]) for i in range(n)}
        for name, values in (("bc", bc), ("pi_mean", pi_mean), ("mu", mu))
    }


def verify(workload, corrupt: bool = False) -> dict:
    """Run the run-level checks over the workload's checkpoints.

    With *corrupt*, every checked answer is first multiplied by
    ``CORRUPT_FACTOR`` — a normalisation slip, the smoke test's proof that
    the pooled-error check alone fails a run whose answers are plausible
    but wrong.
    """
    abs_err = {"estimate": 0.0, "ratio": 0.0}
    ref_sum = {"estimate": 0.0, "ratio": 0.0}
    allowed = {"estimate": 0.0, "ratio": 0.0}
    pooled_ops = {"estimate": 0, "ratio": 0}

    def pool(kind, value, target, eps):
        if target > 0 and eps <= POOL_MAX_EPS:
            pooled_ops[kind] += 1
            abs_err[kind] += abs(value - target)
            ref_sum[kind] += target
            allowed[kind] += target * min(eps, EPS_CAP)

    mismatches = 0
    compared = 0
    checked = 0
    for graph, records in workload.checkpoints():
        ref = exact_reference(graph)
        bc, mu = ref["bc"], ref["mu"]
        for record in records:
            if record["kind"] == "estimate":
                checked += 1
                value = record["value"] * (CORRUPT_FACTOR if corrupt else 1.0)
                target = ref["pi_mean" if record["method"] == "mh" else "bc"][record["target"]]
                pool("estimate", value, target, epsilon(record["samples"], mu[record["target"]]))
                cold = workload.cold_answer(graph, record)
                if cold is not None:
                    compared += 1
                    if float(cold).hex() != float(value).hex():
                        mismatches += 1
            elif record["kind"] == "relative":
                checked += 1
                members = record["targets"]
                pairs = [(a, b) for a in members for b in members if a != b]
                for (a, b), ratio in zip(pairs, record["ratios"]):
                    if math.isfinite(ratio) and bc[b] > 0:
                        value = ratio * (CORRUPT_FACTOR if corrupt else 1.0)
                        eps = epsilon(record["samples"], max(mu[a], mu[b]))
                        pool("ratio", value, bc[a] / bc[b], eps)
    pooled = {kind: abs_err[kind] / ref_sum[kind] for kind in abs_err if ref_sum[kind] > 0}
    bounds = {kind: allowed[kind] / ref_sum[kind] for kind in pooled}
    accurate = "estimate" in pooled and all(pooled[k] <= bounds[k] for k in pooled)
    return {
        "correct": checked > 0 and mismatches == 0 and accurate,
        "accurate": accurate,
        "checked_ops": checked,
        "pooled_ops": pooled_ops,
        "pooled_rel_error": pooled,
        "error_bound": bounds,
        "bitwise_compared": compared,
        "bitwise_mismatches": mismatches,
    }


def epsilon(samples: int, mu: float) -> float:
    """Equation 12's relative error at *samples* and µ, failure probability BOUND_DELTA."""
    from repro.mcmc.bounds import epsilon_for_samples

    return epsilon_for_samples(samples, BOUND_DELTA, mu)


def answers_digest(records) -> str:
    """SHA-256 over the canonical JSON of answer records (floats exact via repr)."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
