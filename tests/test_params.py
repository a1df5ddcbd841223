"""Checkpoint serialization of model parameters."""

import dataclasses
import json

import numpy as np

from evstruct.factorgraph import build_graph, loopy_bp
from evstruct.params import (
    REL_BLOCKS, TypeInventory, _leaves, check_params, init_params,
    load_params, params_to_obj, save_params,
)
from evstruct.schema import (
    CATEGORICAL, ORDINAL, PRED_ARG_EDGE, PREDICATE_NODE, PropertySpec, Schema,
    default_schema,
)
from evstruct.synth import SynthConfig, sample_corpus


def test_older_checkpoint_with_nn_block_loads(tmp_path):
    # earlier versions also saved an entity x entity relation block
    inv = TypeInventory(2, 3, 2, 2)
    schema = default_schema()
    obj = params_to_obj(init_params(schema, inv, seed=0))
    obj["priors"]["theta_rel"]["nn"] = np.full((3, 3, 2), 0.5).tolist()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(obj))

    params = load_params(path)
    assert tuple(params.priors.theta_rel) == REL_BLOCKS == ("ee", "en")
    again = tmp_path / "again.json"
    save_params(params, again)
    assert "nn" not in load_params(again).priors.theta_rel

    docs, _, _ = sample_corpus(SynthConfig(inventory=inv, schema=schema,
                                           n_docs=1, eventive_prob=1.0))
    post = loopy_bp(build_graph(docs[0], params, schema, window=2,
                                confidence_weighting=False))
    assert np.isfinite(post.evidence)


def assert_same_tree(a, b, path="params"):
    """a and b hold the same types and values, node for node."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_tree(getattr(a, f.name), getattr(b, f.name),
                             f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for key in a:
            assert_same_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    else:
        assert a == b, path


def test_checkpoint_round_trips_every_family(tmp_path):
    # the default schema's binary, gated binary, gated ordinal and temporal
    # properties, plus an ungated ordinal and a categorical one
    schema = Schema(default_schema().properties + (
        PropertySpec("frequency", "subevent", PREDICATE_NODE, ORDINAL,
                     n_levels=4),
        PropertySpec("manner", "role", PRED_ARG_EDGE, CATEGORICAL,
                     n_categories=3)))
    annotators = ["ann0", "ann1", "ann2"]
    params = init_params(schema, TypeInventory(3, 2, 2, 2), seed=0,
                         annotators=annotators)
    rng = np.random.default_rng(1)
    for pp in params.props.values():
        for _, owner, attr, width in _leaves(pp):
            # a non-zero intercept and covariance on every leaf
            setattr(owner, attr + "rho", {
                a: float(rng.normal()) if width is None
                else rng.normal(size=width) for a in annotators})
            if width is None:
                setattr(owner, attr + "sigma", float(rng.uniform(0.5, 2.0)))
            else:
                m = rng.normal(size=(width, width))
                setattr(owner, attr + "sigma", m @ m.T + np.eye(width))
    params.priors.theta_event = rng.dirichlet(np.ones(3))

    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_params(params, first)
    loaded = load_params(first)
    save_params(loaded, again)
    assert first.read_bytes() == again.read_bytes()
    assert_same_tree(params, loaded)
    check_params(loaded, schema)


def _isinstance_leaves(pp):
    """The hand-written walk that _leaves replaced: one branch per family."""
    from evstruct.params import (
        BinaryParams, CategoricalParams, HurdleParams, OrdinalParams,
        TemporalParams,
    )
    if isinstance(pp, HurdleParams):
        yield "gate_", pp, "gate_", None
        yield from _isinstance_leaves(pp.base)
    elif isinstance(pp, TemporalParams):
        for block in ("start", "end", "order"):
            for _, owner, attr, width in _isinstance_leaves(
                    getattr(pp, block)):
                yield f"{block}.", owner, attr, width
    elif isinstance(pp, BinaryParams):
        yield "", pp, "", None
    elif isinstance(pp, CategoricalParams):
        yield "", pp, "", pp.mu.shape[-1]
    elif isinstance(pp, OrdinalParams):
        yield "", pp, "", len(pp.cut_raw)
    else:  # pragma: no cover
        raise TypeError(type(pp))


def test_leaves_walk_matches_one_branch_per_family():
    # binary, gated binary, gated ordinal and temporal from the default
    # schema, plus an ungated ordinal and a categorical property
    schema = Schema(default_schema().properties + (
        PropertySpec("frequency", "subevent", PREDICATE_NODE, ORDINAL,
                     n_levels=4),
        PropertySpec("manner", "role", PRED_ARG_EDGE, CATEGORICAL,
                     n_categories=3)))
    params = init_params(schema, TypeInventory(3, 2, 2, 2), seed=0,
                         annotators=["ann0", "ann1"])
    shapes = set()
    for name, pp in params.props.items():
        def tuples(walk):
            return [(prefix, id(owner), attr, width)
                    for prefix, owner, attr, width in walk(pp)]
        assert tuples(_leaves) == tuples(_isinstance_leaves), name
        spec = schema[name]
        shapes.add((spec.gated, spec.response))
    assert shapes == {(False, "binary"), (True, "binary"), (True, "ordinal"),
                      (False, "temporal-tuple"), (False, "ordinal"),
                      (False, "categorical")}
