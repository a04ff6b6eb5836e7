"""``load_model`` and ``serialize_model`` give the same outcome on both paths.

With orjson installed, ``load_model`` parses with it and falls back to
``json.loads`` (the module docstring of ``safemdp.model`` has the rules).
Each load test here loads a text once with ``safemdp.model.orjson`` set to
the module and once with it set to None, and compares the outcomes: the
same labels with the same types and bit-identical arrays, or the same
exception type and message.  ``serialize_model`` writes its numbers with
orjson where it can; on both paths its text must be the encoder's.  The
orjson side is skipped where orjson is missing.
"""
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import safemdp as sm
import safemdp.model as model_module
from corpus import EDGE_FLOATS
from test_model import edge_models, reference_serialize_model

SETTINGS = settings(derandomize=True, deadline=None, max_examples=400)
EDGE_INTS = (2**63, 2**64, 10**30, -(2**63) - 1, -(2**63), 2**64 - 1, 2**64 + 2048,
             -(2**63) - 512, 2**53 + 1)


@pytest.fixture(scope="module")
def orjson_module():
    return pytest.importorskip("orjson")


def outcome(text):
    """What ``load_model`` gives: the model's labels and array bytes, or the error."""
    try:
        m = sm.load_model(text)
    except Exception as exc:  # noqa: BLE001 - every error must match
        return type(exc), str(exc)
    labels = tuple(tuple((type(x), repr(x)) for x in group)
                   for group in (m.states, m.actions, m.partition.taboo,
                                 m.partition.forbidden, m.partition.target))
    arrays = tuple((a.shape, a.dtype.str, a.tobytes()) for a in (m.transitions, m.rewards))
    return "model", labels, arrays


def on_path(orjson_module, fn, *args):
    """``fn(*args)`` with ``safemdp.model.orjson`` set to ``orjson_module``."""
    saved = model_module.orjson
    try:
        model_module.orjson = orjson_module
        return fn(*args)
    finally:
        model_module.orjson = saved


def both_paths(text, orjson_module):
    """The outcome of ``text`` with orjson, and with ``json.loads`` alone."""
    return on_path(orjson_module, outcome, text), on_path(None, outcome, text)


def assert_same(text, orjson_module):
    fast, reference = both_paths(text, orjson_module)
    assert fast == reference


def corpus_models(ex1_model, solver_corpus, chain_corpus):
    models = [ex1_model, *edge_models(ex1_model).values()]
    models += [model for model, _ in solver_corpus]
    return models + [model for model, _, _ in chain_corpus]


def corpus_texts(ex1_model, solver_corpus, chain_corpus):
    texts = [sm.serialize_model(m) for m in corpus_models(ex1_model, solver_corpus, chain_corpus)]
    return texts + [json.dumps(json.loads(t)) for t in texts]


def test_corpus_documents_match(orjson_module, ex1_model, solver_corpus, chain_corpus):
    for text in corpus_texts(ex1_model, solver_corpus, chain_corpus):
        assert_same(text, orjson_module)


def test_orjson_serves_plain_documents(orjson_module, ex1_model, solver_corpus):
    """The fast path is taken, not only fallen back from, on ordinary documents."""
    for model in [ex1_model] + [m for m, _ in solver_corpus]:
        assert model_module._load_orjson(sm.serialize_model(model)) is not None


def _ex1_text(data_dir):
    return (data_dir / "ex1_model.json").read_text()


def _relabel(text, old, new):
    """``text`` with every JSON string ``old`` replaced by the literal ``new``."""
    return text.replace(json.dumps(old), new)


def edge_texts(text):
    """Texts on which orjson and ``json.loads`` part ways or come close to."""
    nest = "[" * 2000 + "0" + "]" * 2000
    deep_object = '{"k": ' * 2000 + "0" + "}" * 2000
    p, rho = '"p": 0.4', '"rho": 1}'
    assert p in text and rho in text
    out = {}
    for value in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", str(10**30),
                  str(10**400), str(2**64), str(2**64 + 2048), "9" * 5000, nest):
        out[f"p {value[:12]}"] = text.replace(p, '"p": ' + value, 1)
        out[f"rho {value[:12]}"] = text.replace(rho, '"rho": ' + value + "}", 1)
    for value in EDGE_INTS:
        out[f"state {value}"] = _relabel(text, "a", str(value))
        out[f"action {value}"] = _relabel(text, "u1", str(value))
        out[f"rho int {value}"] = text.replace(rho, f'"rho": {abs(value)}}}', 1)
    # A reference that rounds, under orjson, to the label -2**63.
    out["ref rounds to label"] = _relabel(text, "a", str(-(2**63))).replace(
        f'"from": {-(2**63)}', f'"from": {-(2**63) - 1}', 1)
    out["ref rounds to float label"] = _relabel(text, "a", "-9.223372036854776e18").replace(
        '"from": -9.223372036854776e18', f'"from": {-(2**63) - 1}', 1)
    body = text.rstrip()[:-1]
    out["ignored huge int"] = body + ', "note": ' + "9" * 5000 + "}"
    out["ignored 400-digit int"] = body + ', "note": 1' + "0" * 400 + "}"
    out["ignored deep list"] = body + ', "note": ' + nest + "}"
    out["ignored deep object"] = body + ', "note": ' + deep_object + "}"
    out["ignored deep in entry"] = text.replace(p, '"x": ' + nest + ", " + p, 1)
    out["ignored nan"] = body + ', "note": NaN}'
    out["ignored scalar"] = body + ', "note": "x"}'
    out["ignored shallow"] = body + ', "note": [{"a": [1]}]}'
    out["deep document"] = nest
    out["deep label"] = text.replace('"a"', nest, 1)
    out["lone surrogate label"] = _relabel(text, "a", '"\\ud800"')
    out["lone low surrogate label"] = _relabel(text, "u2", '"x\\udfff"')
    out["raw lone surrogate"] = _relabel(text, "a", '"\ud800"')
    out["surrogate pair label"] = _relabel(text, "a", '"\\ud83d\\ude00"')
    out["bracket label"] = _relabel(text, "a", '"[a]{"')
    out["duplicate p key"] = text.replace(p, '"p": 0.9, ' + p, 1)
    out["duplicate bad p key"] = text.replace(p, p + ', "p": 0.9', 1)
    out["duplicate states key"] = text.replace('"states"', '"states": [], "states"', 1)
    out["bom"] = "\ufeff" + text
    out["trailing bom"] = text + "\ufeff"
    out["trailing data"] = text + " 1"
    out["empty"] = ""
    out["top-level list"] = "[" + text + "]"
    return out


def test_edge_texts_match(orjson_module, data_dir):
    for name, text in edge_texts(_ex1_text(data_dir)).items():
        fast, reference = both_paths(text, orjson_module)
        assert fast == reference, name


def test_edge_texts_reach_both_outcomes(data_dir):
    """The edge list holds models and errors; a text nested too deeply for
    ``json.loads`` is a ModelFormatError, never a RecursionError."""
    outcomes = {name: outcome(text) for name, text in edge_texts(_ex1_text(data_dir)).items()}
    kinds = {result[0] for result in outcomes.values()}
    assert {"model", sm.ModelFormatError, sm.ModelValidationError} <= kinds
    assert RecursionError not in kinds
    deep = ("deep document", "deep label", "p [[[[[[[[[[[[", "rho [[[[[[[[[[[[",
            "ignored deep list", "ignored deep object", "ignored deep in entry")
    for name in deep:
        kind, message = outcomes[name]
        assert kind is sm.ModelFormatError, name
        assert message.startswith("document nests too deeply: maximum recursion"), name


def _nested(depth):
    label = 0
    for _ in range(depth):
        label = [label]
    return label


def test_repr_of_deep_label_is_a_format_error(ex1_model, monkeypatch):
    """An error message quoting a label too deep for ``repr`` raises
    ModelFormatError; ``_parse`` hands the build such a label directly."""
    doc = json.loads(sm.serialize_model(ex1_model))
    doc["states"][0] = _nested(5000)
    policy = {"policy": [{"state": _nested(5000), "dist": {"u1": 1.0}}]}
    monkeypatch.setattr(model_module, "orjson", None)
    for load, parsed in ((sm.load_model, doc), (lambda t: sm.load_policy(t, ex1_model), policy)):
        monkeypatch.setattr(model_module, "_parse", lambda text, parsed=parsed: parsed)
        with pytest.raises(sm.ModelFormatError, match="nests too deeply: .* repr"):
            load("")


def test_bracket_count_caps_orjson(orjson_module, data_dir, monkeypatch):
    text = _ex1_text(data_dir)
    brackets = text.count("{") + text.count("[")
    monkeypatch.setattr(model_module, "ORJSON_MAX_BRACKETS", brackets)
    assert model_module._load_orjson(text) is not None
    monkeypatch.setattr(model_module, "ORJSON_MAX_BRACKETS", brackets - 1)
    assert model_module._load_orjson(text) is None


def test_nesting_past_orjson_stack_raises(orjson_module, tmp_path):
    """orjson 3.8.3 overflows the C stack on 60,000 nested objects; the cap keeps
    such a text from it, so ``json.loads`` gives up and ``load_model`` raises
    ModelFormatError instead."""
    depth = 60_000
    path = tmp_path / "deep.json"
    path.write_text('{"states": ' + '{"k": ' * depth + "0" + "}" * depth + "}")
    src = pathlib.Path(model_module.__file__).parent.parent
    code = ("import pathlib, sys, safemdp\n"
            "try:\n"
            "    safemdp.load_model(pathlib.Path(sys.argv[1]).read_text())\n"
            "except safemdp.ModelFormatError:\n"
            "    sys.exit(3)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3, proc.stderr


LABELS = st.one_of(
    st.text(max_size=3),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)
NUMBERS = st.one_of(
    st.sampled_from([1.0, 1, 0.5, 0, -0.0, 10**30, 2**64 + 2048, -(2**63) - 1, 10**400]),
    st.integers(),
    st.floats(),
    st.integers(0, 2**200).map(lambda k: float(k)),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=6,
)
SPLICES = ["", "{", "}", "[", "]", ",", ":", '"', "-", "0", "e", "NaN", "1e400", " ",
           "\\ud800", "\ufeff", "\x00", str(2**64)]


@st.composite
def documents(draw):
    """A model document text: often valid, sometimes edited or cut."""
    states = draw(st.lists(LABELS, min_size=2, max_size=4, unique_by=repr))
    actions = draw(st.lists(LABELS, min_size=1, max_size=2, unique_by=repr))
    h = draw(st.integers(1, len(states) - 1))
    nu = draw(st.integers(0, len(states) - h - 1))
    doc = {
        "states": states,
        "actions": actions,
        "partition": {"taboo": states[:h], "forbidden": states[h:h + nu],
                      "target": states[h + nu:]},
        "transitions": [
            {"from": s, "action": u, "to": draw(st.sampled_from(states)), "p": 1.0}
            for s in states[:h] for u in actions
        ],
        "rewards": [
            {"state": s, "action": u, "rho": draw(st.floats(0, 10) | st.sampled_from(
                [0, 3, 10**30, 2**64 + 2048, 2**70 + 1]))}
            for s in states[:h] for u in actions
        ],
    }
    if draw(st.booleans()):
        entry = draw(st.sampled_from(doc["transitions"] + doc["rewards"]))
        key = draw(st.sampled_from(sorted(entry)))
        entry[key] = draw(NUMBERS | LABELS)
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["note", "states", "partition"]))] = draw(JSON_VALUES)
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 2])))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(SPLICES)) + text[at + cut:]
    return text


@SETTINGS
@given(text=documents())
def test_generated_documents_match(orjson_module, text):
    assert_same(text, orjson_module)


@SETTINGS
@given(values=st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), min_size=1, max_size=8))
@example(values=[x for x in EDGE_FLOATS if math.isfinite(x)])
@example(values=list(EDGE_FLOATS))
def test_number_tokens_are_the_encoders(orjson_module, values):
    """The document's number tokens are ``json.dumps``' on both paths."""
    want = [json.dumps(x) for x in values]
    for module in (orjson_module, None):
        assert on_path(module, model_module._tokens, np.array(values)) == want


def test_serialize_matches_reference_on_both_paths(orjson_module, ex1_model, solver_corpus,
                                                   chain_corpus):
    for model in corpus_models(ex1_model, solver_corpus, chain_corpus):
        want = reference_serialize_model(model)
        for module in (orjson_module, None):
            assert on_path(module, sm.serialize_model, model) == want
