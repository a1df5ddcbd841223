"""The M-step's prior tables from the compiled graph's expected counts
(CorpusGraph.prior_counts) against the update they replaced, kept here as
the reference: a walk over each document's variable kinds and factor
beliefs that parsed the table of a factor from its ids.  Equal bit for bit
after one E-step, for type counts where role, ee and en share one table
shape and where they do not, with and without relation pairs."""

import copy

import numpy as np
import pytest

from evstruct.corpus import prepare_corpus
from evstruct.factorgraph import compile_corpus
from evstruct.learning import (
    FitConfig, _normalize_counts, build_obs, e_step, m_step,
)
from evstruct.params import PRIOR_TABLES, TypeInventory
from evstruct.schema import default_schema
from evstruct.synth import SynthConfig, sample_corpus

SCHEMA = default_schema()


def reference_update(params, posteriors):
    """Each prior table, normalized, as update_priors computed it before it
    read the compiled graph."""
    inv = params.inventory
    ev = np.zeros(inv.k_event)
    en = np.zeros(inv.k_entity)
    role = np.zeros((inv.k_event, inv.k_entity, inv.k_role))
    rel = {"ee": np.zeros((inv.k_event, inv.k_event, inv.k_rel)),
           "en": np.zeros((inv.k_event, inv.k_entity, inv.k_rel))}
    for post in posteriors:
        for var_id, kind in post.kinds.items():
            if kind == "event":
                ev += post.marginals[var_id]
            elif kind == "entity":
                en += post.marginals[var_id]
        for fid, belief in post.factor_beliefs.items():
            if fid.startswith("prior:") and belief.ndim == 3:
                elem = fid.split(":", 1)[1]
                if post.kinds[elem] == "role":
                    role += belief
                else:
                    _, b = elem.split("--")
                    block = "ee" if post.kinds[b] == "event" else "en"
                    rel[block] += belief
    return {"event": _normalize_counts(ev), "entity": _normalize_counts(en),
            "role": _normalize_counts(role),
            **{b: _normalize_counts(m) for b, m in rel.items()}}


CORPORA = {
    # role, ee and en all (3, 3, 2): one table shape, one BP block
    "shared-shape": (TypeInventory(3, 3, 2, 2), 1,
                     dict(sentences_per_doc=3, predicates_per_sentence=2,
                          eventive_prob=0.5)),
    # role (2, 3, 4), ee (2, 2, 5), en (2, 3, 5)
    "three-shapes": (TypeInventory(2, 3, 4, 5), 3,
                     dict(sentences_per_doc=3, predicates_per_sentence=2,
                          eventive_prob=0.5)),
    # every argument eventive: ee and en pairs in every document
    "eventive": (TypeInventory(3, 2, 2, 3), 3,
                 dict(sentences_per_doc=2, predicates_per_sentence=2,
                      arguments_per_predicate=2, eventive_prob=1.0)),
    # one sentence with one predicate: no relation pairs
    "no-pairs": (TypeInventory(3, 2, 2, 3), 1,
                 dict(sentences_per_doc=1, predicates_per_sentence=1)),
}


@pytest.mark.parametrize("name", list(CORPORA))
def test_prior_update_matches_reference(name):
    inv, n_blocks, shape = CORPORA[name]
    docs, _, params = sample_corpus(SynthConfig(
        inventory=inv, schema=SCHEMA, n_docs=5, n_annotators=3,
        annotators_per_item=2, seed=3, **shape))
    prepare_corpus(docs, SCHEMA)
    config = FitConfig(m_step_iters=0)
    obs = build_obs(docs, SCHEMA)
    posts = e_step(docs, params, SCHEMA, config, obs=obs)
    want = reference_update(params, posts)

    graph = compile_corpus(docs, inv, config.window, obs)
    assert sum(len(b.shape) == 3 for b in graph.blocks) == n_blocks
    counts = graph.prior_counts(posts)
    assert list(counts) == list(PRIOR_TABLES)
    updated = copy.deepcopy(params)
    m_step(docs, posts, updated, SCHEMA, config, obs=obs)
    got = updated.priors.tables()
    assert list(got) == list(want)
    for table, theta in want.items():
        assert got[table].shape == theta.shape
        assert got[table].tobytes() == theta.tobytes(), table

    kinds = [kind for post in posts for kind in post.kinds.values()]
    if name == "no-pairs":
        assert "rel" not in kinds
        for block in ("ee", "en"):
            assert not counts[block].any()
            assert np.all(got[block] == 1.0 / inv.k_rel)
    else:
        # every table had factors to count
        assert all(c.sum() > 0 for c in counts.values())
