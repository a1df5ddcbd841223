"""Checkpoint serialization of model parameters."""

import json

import numpy as np

from evstruct.factorgraph import build_graph, loopy_bp
from evstruct.params import (
    REL_BLOCKS, TypeInventory, init_params, load_params, params_to_obj,
    save_params,
)
from evstruct.schema import default_schema
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
