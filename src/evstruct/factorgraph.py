"""Factor graphs of the generative story: a corpus's graphs compiled once
into flat arrays and fed potentials in each E-step, sum-product loopy
belief propagation over them with Bethe evidence, the same graphs as
per-document objects, and an exact enumeration oracle for small documents.

Variables: event type per predicate, entity type per argument, role type
per predicate-argument edge, relation type per window pair.  Priors are
unary (event, entity) or ternary (role, relation); all of an element's
weighted annotation log-likelihoods fold into one unary factor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import DocumentGraph, Node, doc_edge_id, edge_id
from .likelihoods import logsumexp
from .params import (
    PRIOR_TABLES, REL_TABLE, ModelParams, ObsIndex, TypeInventory,
    _packs_from_params, build_obs, item_logliks,
)
from .schema import GROUPS, Schema

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


# ---------------------------------------------------------------------------
# a batch of documents' factor graphs compiled once into flat arrays

@dataclass
class _Block:
    """The factors of one table shape, in factor order, and the (rows, k)
    edge-state indices of each table position."""
    shape: tuple[int, ...]
    factors: np.ndarray
    es: list[np.ndarray]


class CorpusGraph:
    """The factor graphs of a batch of documents as flat arrays, built once
    and then fed potentials.

    Variables and factors are numbered document by document, each
    document's factors as built: its variables' priors, then its
    likelihoods.  Factors of one table shape form a block, in order of first
    appearance.  Edge states (one per factor, position and state) are laid
    out in factor, position order, so a bincount adds each variable's
    incoming messages in the order its factors appear.  sources names sets
    of factors of one shape, each as (shape, factor indices), and
    source_rows gives the (block, rows) of each that has factors.  A
    compiled corpus names each prior table by its name in PRIOR_TABLES and
    each kind's likelihoods "lik:<kind>"."""

    def __init__(self, doc_ids, doc_vars, var_ids, var_kinds, var_k,
                 factor_ids, priors, scopes, fac_doc, sources):
        self.doc_ids, self.doc_vars = doc_ids, doc_vars
        self.var_ids, self.var_kinds = var_ids, var_kinds
        self.factor_ids, self.priors, self.scopes = factor_ids, priors, scopes
        self.doc_facs = np.searchsorted(fac_doc, np.arange(len(doc_ids) + 1))
        self.fac_doc = np.array(fac_doc, dtype=int)
        self.var_k = np.array(var_k, dtype=int)
        self.var_doc = np.repeat(np.arange(len(doc_ids)), np.diff(doc_vars))
        arity = np.fromiter(map(len, scopes), dtype=int, count=len(scopes))
        self.fac_edge = np.cumsum(arity) - arity
        self.edge_var = np.fromiter(chain.from_iterable(scopes), dtype=int,
                                    count=int(arity.sum()))
        self.var_off = np.cumsum(self.var_k) - self.var_k
        edge_k = self.var_k[self.edge_var]
        self.edge_off = np.cumsum(edge_k) - edge_k
        self.n_states = int(self.var_k.sum())
        self.es2vs = (np.repeat(self.var_off[self.edge_var] - self.edge_off,
                                edge_k) + np.arange(int(edge_k.sum())))
        self.es_edge = np.repeat(np.arange(len(edge_k)), edge_k)
        self.edge_cols = _columns(self.edge_off, edge_k)
        self.var_cols = _columns(self.var_off, self.var_k)
        self.state_var = np.repeat(np.arange(len(var_k)), self.var_k)
        self.es_doc = np.repeat(self.fac_doc, arity)[self.es_edge]
        self.sources = {name: (shape, np.array(fs, dtype=int))
                        for name, (shape, fs) in sources.items()}
        sources = {name: sf for name, sf in self.sources.items()
                   if len(sf[1])}
        # one block per shape, in order of its first factor
        shapes: dict[tuple, list] = {}
        for shape, fs in sorted(sources.values(), key=lambda sf: sf[1][0]):
            shapes.setdefault(shape, []).append(fs)
        self.blocks = []
        for shape, fss in shapes.items():
            factors = np.sort(np.concatenate(fss))
            self.blocks.append(_Block(shape, factors, [
                self.edge_off[self.fac_edge[factors] + p][:, None]
                + np.arange(k) for p, k in enumerate(shape)]))
        # each factor's row among the rows of all blocks, in block order
        row_of = np.argsort(np.concatenate(
            [np.zeros(0, dtype=int)] + [b.factors for b in self.blocks]))
        self.row_of = row_of.tolist()
        prior = np.flatnonzero(priors)
        self.prior_rows = row_of[prior].tolist()
        self.prior_ids = [factor_ids[f] for f in prior]
        self.doc_priors = np.searchsorted(self.fac_doc[prior],
                                          np.arange(len(doc_ids) + 1))
        self.var_slices = list(map(slice, self.var_off.tolist(),
                                   (self.var_off + self.var_k).tolist()))
        block_of = {b.shape: i for i, b in enumerate(self.blocks)}
        self.source_rows = {
            name: (block_of[shape],
                   np.searchsorted(self.blocks[block_of[shape]].factors, fs))
            for name, (shape, fs) in sources.items()}

    def potentials(self, params: ModelParams, schema: Schema,
                   obs: ObsIndex) -> list[np.ndarray]:
        """Each block's (rows, *shape) log-potentials: the log prior tables
        broadcast into their rows, and each annotated element's weighted
        observation rows scored under every candidate type by the M-step's
        item_logliks, once per kind for the whole corpus."""
        pots = [np.empty((len(b.factors),) + b.shape) for b in self.blocks]
        for name, theta in params.priors.tables().items():
            if name in self.source_rows:
                block, rows = self.source_rows[name]
                pots[block][rows] = _log(theta)
        packs = _packs_from_params(params, schema, obs.annotators)
        for kind, elements in obs.elements.items():
            lls = item_logliks(packs, obs, schema, kind,
                               params.inventory.k_for(kind))
            bad = ~np.isfinite(lls).all(axis=1)
            if bad.any():
                doc_i, element = elements[np.argmax(bad)]
                raise NumericalError(f"document {self.doc_ids[doc_i]}: "
                                     f"non-finite potential in factor "
                                     f"lik:{element}")
            if elements:
                block, rows = self.source_rows["lik:" + kind]
                pots[block][rows] = lls
        return pots

    def prior_counts(self, posts: list[PosteriorSet]
                     ) -> dict[str, np.ndarray]:
        """Each prior table's expected counts under the posteriors posts
        that bp returned: the marginals of its unary factors' variables or
        the beliefs of its ternary factors, summed in factor order; zeros
        for a table with no factors."""
        counts = {}
        for name in PRIOR_TABLES:
            shape, fs = self.sources[name]
            total = counts[name] = np.zeros(shape)
            for f in fs.tolist():
                post = posts[self.fac_doc[f]]
                total += (post.marginals[self.var_ids[self.scopes[f][0]]]
                          if len(shape) == 1
                          else post.factor_beliefs[self.factor_ids[f]])
        return counts

    def objects(self, pots: list[np.ndarray]) -> list[FactorGraph]:
        """Each document's graph as objects, the factors' log-potentials
        rows of pots."""
        rows = list(chain.from_iterable(pots))
        logpots = list(map(rows.__getitem__, self.row_of))
        ks, graphs = self.var_k.tolist(), []
        for d, doc_id in enumerate(self.doc_ids):
            v0, v1 = self.doc_vars[d], self.doc_vars[d + 1]
            variables = [Variable(self.var_ids[v], self.var_kinds[v], ks[v])
                         for v in range(v0, v1)]
            graphs.append(FactorGraph(doc_id, variables, [
                Factor(self.factor_ids[f],
                       "prior" if self.priors[f] else "likelihood",
                       tuple(v - v0 for v in self.scopes[f]), logpots[f])
                for f in range(self.doc_facs[d], self.doc_facs[d + 1])],
                {v.var_id: i for i, v in enumerate(variables)}))
        return graphs

    def bp(self, pots: list[np.ndarray], max_iters: int, damping: float,
           tol: float = 1e-8) -> list[PosteriorSet]:
        """Synchronous flooding sum-product, every edge state at once, with
        messages in log space.

        A unary factor's message is constant, so it is computed once.  A
        table of higher arity is max-shifted and exponentiated once; each
        iteration contracts it with the exponentiated incoming messages of
        the other positions (_contract), and a message is the log of that,
        max-shifted.  _log floors every prior table at 1e-12 and each
        shifted incoming message has a maximum of 1, so a contraction of a
        prior table is never 0.  A document is frozen the iteration its
        largest damped message change drops below tol: its messages stay
        as they are, so each document keeps its own iteration count and
        converged flag and does not depend on the rest of the batch.
        Marginals come from normalized message products; evidence is the
        Bethe free energy, exact on acyclic graphs."""
        n_docs, es2vs = len(self.doc_ids), self.es2vs
        f2v, v2f = np.zeros(len(es2vs)), np.zeros(len(es2vs))
        unary, tables = np.zeros(len(es2vs)), []
        for block, pot in zip(self.blocks, pots):
            if len(block.shape) == 1:
                unary[block.es[0]] = pot - pot.max(axis=1, keepdims=True)
            else:
                axes = tuple(range(1, len(block.shape) + 1))
                tables.append((block.es, np.exp(
                    pot - pot.max(axis=axes, keepdims=True))))
        iterations = np.zeros(n_docs, dtype=int)
        converged = np.zeros(n_docs, dtype=bool)
        for iteration in range(1, max_iters + 1):
            if converged.all():
                break
            iterations[~converged] = iteration
            total = np.bincount(es2vs, weights=f2v, minlength=self.n_states)
            inc = total[es2vs] - f2v
            inc -= _segment_max(inc, self.edge_cols)[self.es_edge]
            ex, cand = np.exp(inc), unary.copy()
            for ess, table in tables:
                for es, c in zip(ess, _contract(table,
                                                [ex[es] for es in ess])):
                    cand[es] = np.log(c)
            # a unary candidate's maximum is 0 already: subtracting it is exact
            cand -= _segment_max(cand, self.edge_cols)[self.es_edge]
            live = ~converged[self.es_doc]
            bad = live & ~np.isfinite(cand)
            if bad.any():
                f = np.searchsorted(self.fac_edge,
                                    self.es_edge[np.argmax(bad)], "right") - 1
                raise NumericalError(
                    f"document {self.doc_ids[self.fac_doc[f]]}: non-finite "
                    f"message from factor {self.factor_ids[f]}")
            msg = (1 - damping) * cand + damping * f2v
            moved = np.zeros(n_docs, dtype=bool)
            moved[self.es_doc[np.abs(msg - f2v) >= tol]] = True
            np.copyto(f2v, msg, where=live)
            np.copyto(v2f, inc, where=live)
            converged |= ~moved
        return self._posteriors(pots, f2v, v2f, iterations, converged)

    def _posteriors(self, pots, f2v, v2f, iterations, converged):
        n_docs, n_vars, sv = len(self.doc_ids), len(self.var_k), self.state_var
        # variable beliefs: one segment of the flat state array per variable
        total = np.bincount(self.es2vs, weights=f2v, minlength=self.n_states)
        b = np.exp(total - _segment_max(total, self.var_cols)[sv])
        b /= np.bincount(sv, weights=b, minlength=n_vars)[sv]
        entropy = -np.bincount(sv, weights=b * np.log(np.where(b > 0, b, 1.0)),
                               minlength=n_vars)
        degree = np.bincount(self.edge_var, minlength=n_vars)
        evidence = -np.bincount(self.var_doc, weights=(degree - 1.0) * entropy,
                                minlength=n_docs)
        beliefs = []
        for block, pot in zip(self.blocks, pots):
            axes = tuple(range(1, len(block.shape) + 1))
            acc = _joint(pot, [v2f[es] for es in block.es])
            bf = np.exp(acc - acc.max(axis=axes, keepdims=True))
            bf /= bf.sum(axis=axes, keepdims=True)
            terms = np.where(bf > 0, bf * pot, 0.0) \
                - bf * np.log(np.where(bf > 0, bf, 1.0))   # energy + entropy
            evidence += np.bincount(self.fac_doc[block.factors],
                                    weights=terms.sum(axis=axes),
                                    minlength=n_docs)
            beliefs.append(bf)
        rows = list(chain.from_iterable(beliefs))
        beliefs = list(map(rows.__getitem__, self.prior_rows))
        marginals = list(map(b.__getitem__, self.var_slices))
        posts = []
        for d in range(n_docs):
            vs = slice(self.doc_vars[d], self.doc_vars[d + 1])
            ps = slice(self.doc_priors[d], self.doc_priors[d + 1])
            posts.append(PosteriorSet(
                marginals=dict(zip(self.var_ids[vs], marginals[vs])),
                evidence=float(evidence[d]), converged=bool(converged[d]),
                iterations=int(iterations[d]),
                kinds=dict(zip(self.var_ids[vs], self.var_kinds[vs])),
                factor_beliefs=dict(zip(self.prior_ids[ps], beliefs[ps]))))
        return posts


def _columns(off, k):
    """The j-th state of each segment of a flat state array (its last where
    it has fewer), one index array per j: a reduction over short segments as
    a few operations on whole arrays."""
    return [off + np.minimum(j, k - 1) for j in range(k.max(initial=1))]


def _segment_max(x, cols):
    m = x[cols[0]]
    for c in cols[1:]:
        np.maximum(m, x[c], out=m)
    return m


def _contract(table, ex):
    """The message to each position of a (rows, ...) table: the table
    contracted with the (rows, k) messages ex of every other position, those
    after it from the last axis, then those before it from the first."""
    suffix = [table]                  # table contracted with ex[p + 1:]
    for m in ex[:0:-1]:
        suffix.append(np.einsum("r...k,rk->r...", suffix[-1], m))
    out = []
    for pos, part in enumerate(reversed(suffix)):
        for m in ex[:pos]:
            part = np.einsum("rk...,rk->r...", part, m)
        out.append(part)
    return out


def _joint(logpot, msgs):
    """(rows, ...) log-potentials plus the (rows, k) message of each table
    position, broadcast along its axis."""
    for pos, m in enumerate(msgs):
        logpot = logpot + np.expand_dims(
            m, tuple(ax + 1 for ax in range(len(msgs)) if ax != pos))
    return logpot


def _compile(corpus: list[DocumentGraph], inventory: TypeInventory,
             window: int, obs: ObsIndex) -> CorpusGraph:
    """Each document's variables, each with its prior factor (unary on a
    node, ternary over the endpoint types and its own type on an edge), then
    one likelihood factor per annotated element, in obs.elements order."""
    k = {kind: inventory.k_for(kind) for kind in obs.elements}
    sources = {name: (inventory.shape(axes), [])
               for name, axes in PRIOR_TABLES.items()}
    sources.update({"lik:" + kind: ((k[kind],), []) for kind in k})
    liks: list[list] = [[] for _ in corpus]
    for kind, elements in obs.elements.items():
        for doc_i, element in elements:
            liks[doc_i].append((kind, element))
    doc_vars, var_ids, var_kinds, factor_ids, priors = [0], [], [], [], []
    scopes: list[tuple] = []
    fac_doc: list[int] = []
    for d, doc in enumerate(corpus):
        index: dict[str, int] = {}

        def add(var_id, kind, source, *ends):
            i = index[var_id] = len(var_ids)
            var_ids.append(var_id)
            var_kinds.append(kind)
            sources[source][1].append(len(scopes))
            scopes.append((*map(index.__getitem__, ends), i))

        for sent in doc.sentences:
            for pred in sent.predicates:
                add(pred.node_id, "event", "event")
            for arg in sent.arguments:
                add(arg.node_id, "entity", "entity")
        for sent in doc.sentences:
            for pred_id, arg_id in sent.edges:
                add(edge_id(pred_id, arg_id), "role", "role", pred_id, arg_id)
        pairs = list(window_pairs(doc, window))
        derived = {(a.node_id, b.node_id) for a, b in pairs}
        for a, b in doc.doc_edges:
            if (a, b) not in derived:
                raise ConstructionError(
                    f"{doc.doc_id}: document edge {a}--{b} is not generated "
                    f"by the window-{window} enumeration")
        for a, b in pairs:              # a is always the current predicate
            add(doc_edge_id(a.node_id, b.node_id), "rel", REL_TABLE[b.kind],
                a.node_id, b.node_id)
        for kind, element in liks[d]:
            sources["lik:" + kind][1].append(len(scopes))
            scopes.append((index[element],))
        factor_ids += ["prior:" + v for v in var_ids[doc_vars[-1]:]]
        factor_ids += ["lik:" + element for _, element in liks[d]]
        priors += ([True] * (len(var_ids) - doc_vars[-1])
                   + [False] * len(liks[d]))
        fac_doc += [d] * (len(scopes) - len(fac_doc))
        doc_vars.append(len(var_ids))
    return CorpusGraph([doc.doc_id for doc in corpus], doc_vars, var_ids,
                       var_kinds, [k[kind] for kind in var_kinds], factor_ids,
                       priors, scopes, fac_doc, sources)


def compile_corpus(corpus: list[DocumentGraph], inventory: TypeInventory,
                   window: int, obs: ObsIndex) -> CorpusGraph:
    """The compiled graph of a corpus, kept with its observation index obs
    by window and type counts: with the corpus that obs indexes, all that
    the graph depends on."""
    key = (window, *inventory.shape(GROUPS))
    if key not in obs.graphs:
        obs.graphs[key] = _compile(corpus, inventory, window, obs)
    return obs.graphs[key]


def build_graphs(corpus: list[DocumentGraph], params: ModelParams,
                 schema: Schema, window: int, obs: ObsIndex
                 ) -> list[FactorGraph]:
    """Construct the factor graph of every document of a corpus.

    obs is the corpus's observation index.  Each annotated element gets
    one unary factor: its weighted observation rows scored under every
    candidate type by the M-step's item_logliks, once per kind for the
    whole corpus, appended in obs.elements order."""
    graph = compile_corpus(corpus, params.inventory, window, obs)
    return graph.objects(graph.potentials(params, schema, obs))


def build_graph(doc: DocumentGraph, params: ModelParams, schema: Schema,
                window: int, confidence_weighting: bool = True) -> FactorGraph:
    """Construct the factor graph for one document: a corpus of one."""
    obs = build_obs([doc], schema, confidence_weighting)
    return build_graphs([doc], params, schema, window, obs)[0]


def loopy_bp_batch(graphs: list[FactorGraph], max_iters: int = 200,
                   damping: float = 0.1, tol: float = 1e-8
                   ) -> list[PosteriorSet]:
    """Loopy BP over many graphs (CorpusGraph.bp), each graph's factors
    stacked by table shape."""
    doc_vars, var_ids, var_kinds, var_k = [0], [], [], []
    factors, scopes, fac_doc = [], [], []
    by_shape: dict[tuple, tuple] = {}
    for d, graph in enumerate(graphs):
        base = len(var_ids)
        for v in graph.variables:
            var_ids.append(v.var_id)
            var_kinds.append(v.kind)
            var_k.append(v.k)
        for f in graph.factors:
            by_shape.setdefault(f.logpot.shape,
                                (f.logpot.shape, []))[1].append(len(factors))
            factors.append(f)
            scopes.append(tuple(base + i for i in f.var_idx))
            fac_doc.append(d)
        doc_vars.append(len(var_ids))
    compiled = CorpusGraph(
        [g.doc_id for g in graphs], doc_vars, var_ids, var_kinds, var_k,
        [f.factor_id for f in factors], [f.role == "prior" for f in factors],
        scopes, fac_doc, by_shape)
    return compiled.bp([np.stack([factors[f].logpot for f in block.factors])
                        for block in compiled.blocks],
                       max_iters, damping, tol)


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
