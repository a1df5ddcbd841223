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

from .corpus import DocumentGraph, Node, doc_edge_id, edge_id
from .likelihoods import logsumexp
from .params import (
    ModelParams, ObsIndex, _packs_from_params, build_obs, item_logliks,
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
    var_index: dict[str, int]


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


def _prior_graph(doc: DocumentGraph, params: ModelParams,
                 window: int) -> FactorGraph:
    """One document's variables, each with its prior factor: unary on a
    node, ternary over the endpoint types and its own type on an edge."""
    graph = FactorGraph(doc.doc_id, [], [], {})
    priors = params.priors

    def add(var_id, kind, theta, *ends):
        i = graph.var_index[var_id] = len(graph.variables)
        graph.variables.append(
            Variable(var_id, kind, params.inventory.k_for(kind)))
        graph.factors.append(Factor(
            f"prior:{var_id}", "prior",
            tuple(graph.var_index[e] for e in ends) + (i,), _log(theta)))

    for sent in doc.sentences:
        for pred in sent.predicates:
            add(pred.node_id, "event", priors.theta_event)
        for arg in sent.arguments:
            add(arg.node_id, "entity", priors.theta_entity)
    for sent in doc.sentences:
        for pred_id, arg_id in sent.edges:
            add(edge_id(pred_id, arg_id), "role", priors.theta_role,
                pred_id, arg_id)

    derived = derive_doc_edges(doc, window)
    derived_set = set(derived)
    for a, b in doc.doc_edges:
        if (a, b) not in derived_set:
            raise ConstructionError(
                f"{doc.doc_id}: document edge {a}--{b} is not generated by "
                f"the window-{window} enumeration")
    for a, b in derived:            # a is always the current predicate
        kind_b = graph.variables[graph.var_index[b]].kind
        add(doc_edge_id(a, b), "rel",
            priors.theta_rel["ee" if kind_b == "event" else "en"], a, b)
    return graph


def build_graphs(corpus: list[DocumentGraph], params: ModelParams,
                 schema: Schema, window: int, obs: ObsIndex
                 ) -> list[FactorGraph]:
    """Construct the factor graph of every document of a corpus.

    obs is the corpus's observation index.  Each annotated element gets
    one unary factor: its weighted observation rows scored under every
    candidate type by the M-step's item_logliks, once per kind for the
    whole corpus, appended in obs.elements order."""
    graphs = [_prior_graph(doc, params, window) for doc in corpus]
    packs = _packs_from_params(params, schema, obs.annotators)
    for kind, elements in obs.elements.items():
        lls = item_logliks(packs, obs, schema, kind,
                           params.inventory.k_for(kind))
        bad = ~np.isfinite(lls).all(axis=1)
        if bad.any():
            doc_i, element = elements[np.argmax(bad)]
            raise NumericalError(f"document {graphs[doc_i].doc_id}: "
                                 f"non-finite potential in factor "
                                 f"lik:{element}")
        for (doc_i, element), logpot in zip(elements, lls):
            graph = graphs[doc_i]
            graph.factors.append(Factor(f"lik:{element}", "likelihood",
                                        (graph.var_index[element],), logpot))
    return graphs


def build_graph(doc: DocumentGraph, params: ModelParams, schema: Schema,
                window: int, confidence_weighting: bool = True) -> FactorGraph:
    """Construct the factor graph for one document: a corpus of one."""
    obs = build_obs([doc], schema, confidence_weighting)
    return build_graphs([doc], params, schema, window, obs)[0]


# ---------------------------------------------------------------------------
# sum-product loopy belief propagation, batched over documents

def _expand(m, pos, arity):
    """(rows, k) messages broadcast along table axis pos."""
    return np.expand_dims(m, tuple(ax + 1 for ax in range(arity) if ax != pos))


def _joint(logpot, msgs):
    for pos, m in enumerate(msgs):
        logpot = logpot + _expand(m, pos, len(msgs))
    return logpot


def loopy_bp_batch(graphs: list[FactorGraph], max_iters: int = 200,
                   damping: float = 0.1, tol: float = 1e-8
                   ) -> list[PosteriorSet]:
    """Synchronous flooding sum-product in log space over many graphs.

    Factors of every graph are grouped by table shape, with messages in
    flat arrays of edge states (one per factor, position and state) laid
    out in graph, factor, position order: a bincount then adds each
    variable's incoming messages in the order its factors appear.  A graph
    is frozen the iteration its largest damped message change drops below
    tol, so each keeps its own iteration count and converged flag.
    Marginals come from normalized message products; evidence is the Bethe
    free energy, exact on acyclic graphs.
    """
    n_docs = len(graphs)
    var_k = np.array([v.k for g in graphs for v in g.variables], dtype=int)
    var_doc = np.repeat(np.arange(n_docs), [len(g.variables) for g in graphs])
    base = np.cumsum([0] + [len(g.variables) for g in graphs])
    shapes, edge_var = {}, []
    for d, graph in enumerate(graphs):
        for f in graph.factors:
            shapes.setdefault(f.logpot.shape, []).append((d, f, len(edge_var)))
            edge_var += [base[d] + vi for vi in f.var_idx]
    edge_var = np.array(edge_var, dtype=int)
    var_off = np.cumsum(var_k) - var_k
    edge_k = var_k[edge_var]
    edge_off = np.cumsum(edge_k) - edge_k
    n_states = int(var_k.sum())
    es2vs = np.repeat(var_off[edge_var] - edge_off, edge_k) \
        + np.arange(int(edge_k.sum()))
    # per shape: (graph, factor) per row, row graphs, tables, and the
    # (rows, k) edge-state indices of each table position
    groups = []
    for shape, rows in shapes.items():
        first = np.array([e for _, _, e in rows], dtype=int)
        groups.append(([(d, f) for d, f, _ in rows],
                       np.array([d for d, _, _ in rows], dtype=int),
                       np.stack([f.logpot for _, f, _ in rows]),
                       [edge_off[first + p][:, None] + np.arange(k)
                        for p, k in enumerate(shape)]))

    f2v, v2f = np.zeros(len(es2vs)), np.zeros(len(es2vs))
    iterations = np.zeros(n_docs, dtype=int)
    converged = np.zeros(n_docs, dtype=bool)
    for iteration in range(1, max_iters + 1):
        if converged.all():
            break
        iterations[~converged] = iteration
        total = np.bincount(es2vs, weights=f2v, minlength=n_states)
        moved = np.zeros(n_docs, dtype=bool)
        for factors, doc, logpot, ess in groups:
            rows = np.flatnonzero(~converged[doc])      # unfrozen factors
            logpot, ess = logpot[rows], [es[rows] for es in ess]
            msgs = [total[es2vs[es]] - f2v[es] for es in ess]
            msgs = [m - m.max(axis=1, keepdims=True) for m in msgs]
            arity = len(msgs)
            if arity == 1:
                cands = [logpot - logpot.max(axis=1, keepdims=True)]
            else:
                acc = _joint(logpot, msgs)
                cands = [logsumexp(acc - _expand(m, pos, arity),
                                   tuple(ax + 1 for ax in range(arity)
                                         if ax != pos))
                         for pos, m in enumerate(msgs)]
                cands = [c - c.max(axis=1, keepdims=True) for c in cands]
            for es, m, cand in zip(ess, msgs, cands):
                bad = ~np.isfinite(cand).all(axis=1)
                if bad.any():
                    d, f = factors[rows[np.argmax(bad)]]
                    raise NumericalError(
                        f"document {graphs[d].doc_id}: non-finite message "
                        f"from factor {f.factor_id}")
                old = f2v[es]
                msg = (1 - damping) * cand + damping * old
                moved[doc[rows[np.abs(msg - old).max(axis=1) >= tol]]] = True
                f2v[es], v2f[es] = msg, m
        converged |= ~moved

    # variable beliefs: one segment of the flat state array per variable
    total = np.bincount(es2vs, weights=f2v, minlength=n_states)
    b = np.exp(total - np.repeat(np.maximum.reduceat(total, var_off), var_k))
    b /= np.repeat(np.add.reduceat(b, var_off), var_k)
    entropy = -np.add.reduceat(b * np.log(np.where(b > 0, b, 1.0)), var_off)
    degree = np.bincount(edge_var, minlength=len(var_k))
    evidence = -np.bincount(var_doc, weights=(degree - 1.0) * entropy,
                            minlength=n_docs)
    beliefs = [{f.factor_id: None for f in g.factors if f.role == "prior"}
               for g in graphs]
    for factors, doc, logpot, ess in groups:
        axes = tuple(range(1, len(ess) + 1))
        acc = _joint(logpot, [v2f[es] for es in ess])
        bf = np.exp(acc - acc.max(axis=axes, keepdims=True))
        bf /= bf.sum(axis=axes, keepdims=True)
        terms = np.where(bf > 0, bf * logpot, 0.0) \
            - bf * np.log(np.where(bf > 0, bf, 1.0))       # energy + entropy
        evidence += np.bincount(doc, weights=terms.sum(axis=axes),
                                minlength=n_docs)
        for (d, f), belief in zip(factors, bf):
            if f.role == "prior":
                beliefs[d][f.factor_id] = belief
    return [PosteriorSet(
        marginals={v.var_id: b[o:o + v.k] for v, o in
                   zip(graph.variables, var_off[base[d]:base[d + 1]])},
        evidence=float(evidence[d]), converged=bool(converged[d]),
        iterations=int(iterations[d]),
        kinds={v.var_id: v.kind for v in graph.variables},
        factor_beliefs=beliefs[d]) for d, graph in enumerate(graphs)]


def loopy_bp(graph: FactorGraph, max_iters: int = 200, damping: float = 0.1,
             tol: float = 1e-8) -> PosteriorSet:
    """Loopy BP on one graph: a batch of one."""
    return loopy_bp_batch([graph], max_iters, damping, tol)[0]


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
