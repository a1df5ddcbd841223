"""Per-document factor graphs: construction from the generative story,
sum-product loopy belief propagation with Bethe evidence, and an exact
enumeration oracle for small documents.

Variables: event type per predicate, entity type per argument, role type
per predicate-argument edge, relation type per window pair.  Priors are
unary (event, entity) or ternary (role, relation); all of an element's
weighted annotation log-likelihoods fold into one unary factor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .corpus import DocumentGraph, Node, doc_edge_id, edge_id
from .params import (  # noqa: F401  (re-exported contract types)
    ModelParams, PriorParams, TypeInventory, _packs_from_params, build_obs,
    item_logliks,
)
from .schema import Schema

_THETA_FLOOR = 1e-12


class ConstructionError(ValueError):
    pass


class NumericalError(ArithmeticError):
    pass


class CapacityError(ValueError):
    pass


@dataclass(frozen=True)
class Variable:
    var_id: str      # element id the variable belongs to
    kind: str        # event | entity | role | rel
    k: int


@dataclass
class Factor:
    factor_id: str
    role: str                     # "prior" | "likelihood"
    var_idx: tuple[int, ...]
    logpot: np.ndarray


@dataclass
class FactorGraph:
    doc_id: str
    variables: list[Variable]
    factors: list[Factor]
    var_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.var_index:
            self.var_index = {v.var_id: i for i, v in enumerate(self.variables)}


@dataclass
class PosteriorSet:
    marginals: dict[str, np.ndarray]
    evidence: float
    converged: bool
    iterations: int
    kinds: dict[str, str] = field(default_factory=dict)
    factor_beliefs: dict[str, np.ndarray] = field(default_factory=dict)


def window_pairs(doc: DocumentGraph, window: int):
    """Enumerate relation pairs exactly as the generative story does.

    Yields (current predicate node, earlier enqueued node); the earlier
    node is a predicate or an eventive argument from the current or one
    of the previous window-1 sentences.
    """
    window_q: deque[list[Node]] = deque()
    for sent in doc.sentences:
        sent_q: list[Node] = []
        window_q.append(sent_q)
        if len(window_q) > window:
            window_q.popleft()
        args = {a.node_id: a for a in sent.arguments}
        args_of = {}
        for pred_id, arg_id in sent.edges:
            args_of.setdefault(pred_id, []).append(args[arg_id])
        for pred in sent.predicates:
            earlier = [node for q in window_q for node in q]
            for other in earlier:
                yield pred, other
            sent_q.append(pred)
            for arg in args_of.get(pred.node_id, []):
                if arg.eventive and all(a.node_id != arg.node_id for a in sent_q):
                    sent_q.append(arg)


def derive_doc_edges(doc: DocumentGraph, window: int) -> list[tuple[str, str]]:
    return [(a.node_id, b.node_id) for a, b in window_pairs(doc, window)]


def _log(theta: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(theta, _THETA_FLOOR))


def build_graph(doc: DocumentGraph, params: ModelParams, schema: Schema,
                window: int, confidence_weighting: bool = True) -> FactorGraph:
    """Construct the factor graph for one document."""
    inv = params.inventory
    variables: list[Variable] = []
    factors: list[Factor] = []

    def add_var(var_id, kind, k):
        variables.append(Variable(var_id, kind, k))
        return len(variables) - 1

    node_kind: dict[str, str] = {}
    for sent in doc.sentences:
        for pred in sent.predicates:
            i = add_var(pred.node_id, "event", inv.k_event)
            node_kind[pred.node_id] = "event"
            factors.append(Factor(f"prior:{pred.node_id}", "prior", (i,),
                                  _log(params.priors.theta_event)))
        for arg in sent.arguments:
            i = add_var(arg.node_id, "entity", inv.k_entity)
            node_kind[arg.node_id] = "entity"
            factors.append(Factor(f"prior:{arg.node_id}", "prior", (i,),
                                  _log(params.priors.theta_entity)))
    var_index = {v.var_id: i for i, v in enumerate(variables)}

    for sent in doc.sentences:
        for pred_id, arg_id in sent.edges:
            eid = edge_id(pred_id, arg_id)
            i = add_var(eid, "role", inv.k_role)
            var_index[eid] = i
            factors.append(Factor(
                f"prior:{eid}", "prior",
                (var_index[pred_id], var_index[arg_id], i),
                _log(params.priors.theta_role)))

    derived = derive_doc_edges(doc, window)
    derived_set = set(derived)
    for a, b in doc.doc_edges:
        if (a, b) not in derived_set:
            raise ConstructionError(
                f"{doc.doc_id}: document edge {a}--{b} is not generated by "
                f"the window-{window} enumeration")
    for a, b in derived:
        did = doc_edge_id(a, b)
        block = "ee" if node_kind[b] == "event" else "en"
        if node_kind[a] != "event":  # pragma: no cover - enumeration guarantees
            raise ConstructionError(f"{doc.doc_id}: pair {a}--{b} does not "
                                    f"start at a predicate")
        i = add_var(did, "rel", inv.k_rel)
        var_index[did] = i
        factors.append(Factor(
            f"prior:{did}", "prior",
            (var_index[a], var_index[b], i),
            _log(params.priors.theta_rel[block])))

    # one unary factor per annotated element: its weighted observation rows
    # scored under every candidate type by the M-step's item_logliks
    unknown = {r.element for r in doc.annotations} - doc.element_kinds().keys()
    if unknown:
        raise ConstructionError(
            f"{doc.doc_id}: annotation on element {min(unknown)!r} which is "
            f"not an element of the document")
    obs = build_obs([doc], schema, confidence_weighting)
    packs = _packs_from_params(params, schema, obs.annotators)
    for kind, elements in obs.elements.items():
        if not elements:
            continue
        lls = item_logliks(packs, obs, schema, kind, inv.k_for(kind))
        for (_, element), logpot in zip(elements, lls):
            if not np.all(np.isfinite(logpot)):
                raise NumericalError(f"{doc.doc_id}: non-finite annotation "
                                     f"potential on {element}")
            factors.append(Factor(f"lik:{element}", "likelihood",
                                  (var_index[element],), logpot))
    return FactorGraph(doc.doc_id, variables, factors, var_index)


# ---------------------------------------------------------------------------
# sum-product loopy belief propagation

def _normalize_log(m: np.ndarray) -> np.ndarray:
    return m - np.max(m)


def loopy_bp(graph: FactorGraph, max_iters: int = 200, damping: float = 0.1,
             tol: float = 1e-8) -> PosteriorSet:
    """Synchronous flooding sum-product in log space.

    Marginals come from normalized message products; evidence is the Bethe
    free energy, exact on acyclic graphs.
    """
    nvars = len(graph.variables)
    factors = graph.factors
    # message tables per directed edge
    f2v = [[np.zeros(graph.variables[i].k) for i in f.var_idx] for f in factors]
    v2f = [[np.zeros(graph.variables[i].k) for i in f.var_idx] for f in factors]
    # incidence: variable -> list of (factor index, position in factor)
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
    for fi, f in enumerate(factors):
        for pos, vi in enumerate(f.var_idx):
            incidence[vi].append((fi, pos))

    converged = False
    iterations = 0
    for iteration in range(1, max_iters + 1):
        iterations = iteration
        delta = 0.0
        # variable -> factor
        new_v2f = [[None] * len(f.var_idx) for f in factors]
        for vi in range(nvars):
            total = np.zeros(graph.variables[vi].k)
            for fi, pos in incidence[vi]:
                total = total + f2v[fi][pos]
            for fi, pos in incidence[vi]:
                new_v2f[fi][pos] = _normalize_log(total - f2v[fi][pos])
        # factor -> variable
        for fi, f in enumerate(factors):
            arity = len(f.var_idx)
            if arity == 1:
                cand = _normalize_log(f.logpot)
                msg = (1 - damping) * cand + damping * f2v[fi][0]
                delta = max(delta, float(np.max(np.abs(msg - f2v[fi][0]))))
                f2v[fi][0] = msg
                v2f[fi][0] = new_v2f[fi][0]
                continue
            acc = f.logpot
            for pos in range(arity):
                shape = [1] * arity
                shape[pos] = -1
                acc = acc + new_v2f[fi][pos].reshape(shape)
            for pos in range(arity):
                axes = tuple(ax for ax in range(arity) if ax != pos)
                shape = [1] * arity
                shape[pos] = -1
                cand = logsumexp(acc - new_v2f[fi][pos].reshape(shape),
                                 axis=axes)
                cand = _normalize_log(cand)
                if not np.all(np.isfinite(cand)):
                    raise NumericalError(
                        f"non-finite message from factor {f.factor_id}")
                msg = (1 - damping) * cand + damping * f2v[fi][pos]
                delta = max(delta, float(np.max(np.abs(msg - f2v[fi][pos]))))
                f2v[fi][pos] = msg
                v2f[fi][pos] = new_v2f[fi][pos]
        if delta < tol:
            converged = True
            break

    marginals, var_entropy, var_degree = {}, np.zeros(nvars), np.zeros(nvars)
    beliefs_v = []
    for vi, var in enumerate(graph.variables):
        total = np.zeros(var.k)
        for fi, pos in incidence[vi]:
            total = total + f2v[fi][pos]
        b = np.exp(total - logsumexp(total))
        b /= b.sum()
        beliefs_v.append(b)
        marginals[var.var_id] = b
        var_entropy[vi] = -float(np.sum(b[b > 0] * np.log(b[b > 0])))
        var_degree[vi] = len(incidence[vi])

    evidence = 0.0
    factor_beliefs = {}
    for fi, f in enumerate(factors):
        arity = len(f.var_idx)
        acc = f.logpot
        for pos in range(arity):
            shape = [1] * arity
            shape[pos] = -1
            acc = acc + v2f[fi][pos].reshape(shape)
        bf = np.exp(acc - logsumexp(acc))
        bf /= bf.sum()
        if f.role == "prior":
            factor_beliefs[f.factor_id] = bf
        mask = bf > 0
        evidence += float(np.sum(bf[mask] * f.logpot[mask]))       # energy
        evidence += -float(np.sum(bf[mask] * np.log(bf[mask])))    # entropy
    evidence -= float(np.sum((var_degree - 1.0) * var_entropy))

    return PosteriorSet(
        marginals=marginals, evidence=evidence, converged=converged,
        iterations=iterations,
        kinds={v.var_id: v.kind for v in graph.variables},
        factor_beliefs=factor_beliefs)


# ---------------------------------------------------------------------------
# exact enumeration oracle

MAX_BRUTE_STATES = 10 ** 7


def brute_force_graph(graph: FactorGraph) -> PosteriorSet:
    shape = tuple(v.k for v in graph.variables)
    total = 1
    for k in shape:
        total *= k
    if total > MAX_BRUTE_STATES:
        raise CapacityError(f"joint state space {total} exceeds "
                            f"{MAX_BRUTE_STATES}")
    joint = np.zeros(shape)
    n = len(shape)
    for f in graph.factors:
        # move factor axes into global variable order, then broadcast
        order = np.argsort(f.var_idx)
        pot = np.transpose(f.logpot, order) if len(f.var_idx) > 1 else f.logpot
        bshape = [1] * n
        for vi in f.var_idx:
            bshape[vi] = shape[vi]
        joint = joint + pot.reshape(bshape)
    log_z = float(logsumexp(joint))
    marginals = {}
    for vi, var in enumerate(graph.variables):
        axes = tuple(ax for ax in range(n) if ax != vi)
        m = np.exp(logsumexp(joint, axis=axes) - log_z)
        m /= m.sum()
        marginals[var.var_id] = m
    return PosteriorSet(marginals=marginals, evidence=log_z, converged=True,
                        iterations=1,
                        kinds={v.var_id: v.kind for v in graph.variables})


def brute_force(doc: DocumentGraph, params: ModelParams, schema: Schema,
                window: int, confidence_weighting: bool = True) -> PosteriorSet:
    graph = build_graph(doc, params, schema, window, confidence_weighting)
    return brute_force_graph(graph)
