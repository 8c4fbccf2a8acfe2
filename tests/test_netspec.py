import pytest
from hypothesis import given, settings, strategies as st

from slimnet.netspec import (
    LayerSpec,
    NetSpec,
    SpecError,
    baseline_spec,
    dropped_conv2_spec,
    load_spec,
    optimized_3x3_spec,
    optimized_spec,
    parse_spec,
    propagate_shapes,
    serialize_spec,
    spec_id,
    validate_classifier,
)
from slimnet.search import default_plan, enumerate_candidates


def test_baseline_shapes_match_ledger_column():
    shapes = propagate_shapes(baseline_spec())
    # ledger rows: input, conv1, pool1, conv2, pool2, fc1, fc2
    visible = [s for s, l in zip(shapes, baseline_spec().layers) if l.kind in ("input", "conv", "maxpool", "dense")]
    assert visible == [
        (28, 28, 1),
        (28, 28, 32),
        (14, 14, 32),
        (14, 14, 64),
        (7, 7, 64),
        (1024,),
        (10,),
    ]


def test_dropped_conv2_shapes():
    visible = [
        s
        for s, l in zip(propagate_shapes(dropped_conv2_spec()), dropped_conv2_spec().layers)
        if l.kind in ("input", "conv", "maxpool", "dense")
    ]
    assert visible == [(28, 28, 1), (28, 28, 32), (14, 14, 32), (1024,), (10,)]


def test_optimized_shapes():
    visible = [
        s
        for s, l in zip(propagate_shapes(optimized_spec()), optimized_spec().layers)
        if l.kind in ("input", "conv", "maxpool", "dense")
    ]
    assert visible == [(28, 28, 1), (28, 28, 2), (7, 7, 2), (128,), (10,)]


def test_input_only_spec():
    spec = NetSpec("just-input", (LayerSpec.input(28, 28, 1),))
    assert propagate_shapes(spec) == [(28, 28, 1)]


def test_flatten_shape_included():
    shapes = propagate_shapes(baseline_spec())
    assert (3136,) in shapes


def test_errors_name_layer_index():
    bad_pool = NetSpec("x", (LayerSpec.input(28, 28, 1), LayerSpec.conv(5, 4), LayerSpec.maxpool(3)))
    with pytest.raises(SpecError, match="layer 2"):
        propagate_shapes(bad_pool)
    no_flatten = NetSpec("x", (LayerSpec.input(28, 28, 1), LayerSpec.dense(10)))
    with pytest.raises(SpecError, match="flatten"):
        propagate_shapes(no_flatten)
    conv_after_flatten = NetSpec(
        "x", (LayerSpec.input(4, 4, 1), LayerSpec.flatten(), LayerSpec.conv(3, 2))
    )
    with pytest.raises(SpecError, match="layer 2"):
        propagate_shapes(conv_after_flatten)


@pytest.mark.parametrize("layer, words", [
    (LayerSpec.conv(True, 2), r"conv kernel must be a positive integer, got True"),
    (LayerSpec.dropout(True), r"dropout keep_prob must be in \(0, 1\], got True"),  # whose text would not parse back
])
def test_shape_rules_refuse_a_bool_field(layer, words):
    with pytest.raises(SpecError, match=f"^layer 1: {words}"):
        propagate_shapes(NetSpec("x", (LayerSpec.input(4, 4, 1), layer)))


def test_first_layer_must_be_input():
    with pytest.raises(SpecError, match="input"):
        propagate_shapes(NetSpec("x", (LayerSpec.conv(3, 2),)))
    with pytest.raises(SpecError, match="one input"):
        propagate_shapes(NetSpec("x", (LayerSpec.input(4, 4, 1), LayerSpec.input(4, 4, 1))))


def test_validate_classifier_requires_width_10():
    ok = optimized_spec()
    validate_classifier(ok)
    not_ten = NetSpec("x", (LayerSpec.input(4, 4, 1), LayerSpec.flatten(), LayerSpec.dense(7)))
    with pytest.raises(SpecError, match="width 10"):
        validate_classifier(not_ten)


# --- parse / serialize ------------------------------------------------------


def test_round_trip_presets():
    for spec in (baseline_spec(), dropped_conv2_spec(), optimized_spec()):
        assert parse_spec(serialize_spec(spec)) == spec


def test_shipped_spec_files_match_presets(tmp_path):
    import pathlib

    specs_dir = pathlib.Path(__file__).resolve().parent.parent / "specs"
    assert load_spec(specs_dir / "baseline.spec") == baseline_spec()
    assert load_spec(specs_dir / "optimized.spec") == optimized_spec()


def test_parse_accepts_comments_and_blank_lines():
    text = """
# a comment
name: tiny

input h=4 w=4 c=1
flatten
dense out=10
"""
    spec = parse_spec(text)
    assert spec.name == "tiny"
    assert [l.kind for l in spec.layers] == ["input", "flatten", "dense"]


def test_parse_pool3_accepted_then_rejected_by_shapes():
    text = "input h=28 w=28 c=1\nconv k=5 out=4\nmaxpool window=3\n"
    spec = parse_spec(text)  # parser does not do shape algebra
    with pytest.raises(SpecError, match="divide"):
        propagate_shapes(spec)


@pytest.mark.parametrize(
    "text,match",
    [
        ("wibble h=2", "unknown layer kind"),
        ("conv k=5", "missing"),
        ("conv k=x out=3", "integer"),
        ("input h=28 w=28 c=1\nconv kk=5 out=3", "unknown field"),
        ("input h=28 w=28 c=1\nconv k=5 k=3 out=32", "line 2.*conv repeats field 'k'"),  # not the last k
        ("name: a\nname: b\ninput h=28 w=28 c=1\nflatten\ndense out=10\n",
         "^line 2: a second 'name:' line; line 1 already names the spec"),  # not the last name
        ("", "no layers"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(SpecError, match=match):
        parse_spec(text)


def test_parse_error_carries_line_number():
    text = "input h=28 w=28 c=1\n# fine\nconv k=5\n"
    with pytest.raises(SpecError, match="line 3"):
        parse_spec(text)


@pytest.mark.parametrize(
    "layer,line,token",
    [
        (LayerSpec.input(28, 14, 3), "input h=28 w=14 c=3", "in28x14x3"),
        (LayerSpec.conv(5, 32), "conv k=5 out=32", "c5.32"),
        (LayerSpec.maxpool(4), "maxpool window=4", "p4"),
        (LayerSpec.flatten(), "flatten", "fl"),
        (LayerSpec.dense(1024), "dense out=1024", "fc1024"),
        (LayerSpec.dropout(0.5), "dropout keep=0.5", "do0.5"),
        (LayerSpec.dropout(0.125), "dropout keep=0.125", "do0.125"),
        (LayerSpec.dropout(1.0), "dropout keep=1", "do1"),
        # `g` text would merge these two into "0.123457"
        (LayerSpec.dropout(0.1234567), "dropout keep=0.1234567", "do0.1234567"),
        (LayerSpec.dropout(0.1234568), "dropout keep=0.1234568", "do0.1234568"),
    ],
)
def test_layer_text_and_id_token_pinned(layer, line, token):
    # `id=` is the sweep ledger's aggregation and resume key: it must not drift
    spec = NetSpec("", (layer,))
    assert serialize_spec(spec) == line + "\n"
    assert serialize_spec(NetSpec("n", (layer,))) == f"name: n\n{line}\n"
    assert spec_id(spec) == token
    assert parse_spec(line).layers == (layer,)


def test_spec_id_stable():
    assert [spec_id(f()) for f in (baseline_spec, dropped_conv2_spec, optimized_spec, optimized_3x3_spec)] == [
        "in28x28x1-c5.32-p2-c5.64-p2-fl-fc1024-do0.5-fc10",
        "in28x28x1-c5.32-p2-fl-fc1024-do0.5-fc10",
        "in28x28x1-c5.2-p4-fl-fc128-do0.5-fc10",
        "in28x28x1-c3.2-p4-fl-fc128-do0.5-fc10",
    ]
    assert [(c.tag, spec_id(c.spec)) for c in enumerate_candidates(default_plan())] == [
        ("drop_conv2=false", "in28x28x1-c5.32-p2-c5.64-p2-fl-fc1024-do0.5-fc10"),
        ("drop_conv2=true", "in28x28x1-c5.32-p2-fl-fc1024-do0.5-fc10"),
        ("fc1_width=1024", "in28x28x1-c5.32-p2-fl-fc1024-do0.5-fc10"),
        ("fc1_width=512", "in28x28x1-c5.32-p2-fl-fc512-do0.5-fc10"),
        ("fc1_width=256", "in28x28x1-c5.32-p2-fl-fc256-do0.5-fc10"),
        ("fc1_width=128", "in28x28x1-c5.32-p2-fl-fc128-do0.5-fc10"),
        ("fc1_width=64", "in28x28x1-c5.32-p2-fl-fc64-do0.5-fc10"),
        ("fc1_width=32", "in28x28x1-c5.32-p2-fl-fc32-do0.5-fc10"),
        ("conv1=5x5x32", "in28x28x1-c5.32-p2-fl-fc128-do0.5-fc10"),
        ("conv1=5x5x16", "in28x28x1-c5.16-p2-fl-fc128-do0.5-fc10"),
        ("conv1=5x5x8", "in28x28x1-c5.8-p2-fl-fc128-do0.5-fc10"),
        ("conv1=5x5x4", "in28x28x1-c5.4-p2-fl-fc128-do0.5-fc10"),
        ("conv1=5x5x2", "in28x28x1-c5.2-p2-fl-fc128-do0.5-fc10"),
        ("conv1=3x3x32", "in28x28x1-c3.32-p2-fl-fc128-do0.5-fc10"),
        ("conv1=3x3x16", "in28x28x1-c3.16-p2-fl-fc128-do0.5-fc10"),
        ("conv1=3x3x8", "in28x28x1-c3.8-p2-fl-fc128-do0.5-fc10"),
        ("conv1=3x3x4", "in28x28x1-c3.4-p2-fl-fc128-do0.5-fc10"),
        ("conv1=3x3x2", "in28x28x1-c3.2-p2-fl-fc128-do0.5-fc10"),
        ("conv1=1x1x32", "in28x28x1-c1.32-p2-fl-fc128-do0.5-fc10"),
        ("conv1=1x1x16", "in28x28x1-c1.16-p2-fl-fc128-do0.5-fc10"),
        ("conv1=1x1x8", "in28x28x1-c1.8-p2-fl-fc128-do0.5-fc10"),
        ("conv1=1x1x4", "in28x28x1-c1.4-p2-fl-fc128-do0.5-fc10"),
        ("conv1=1x1x2", "in28x28x1-c1.2-p2-fl-fc128-do0.5-fc10"),
        ("pool_window=2", "in28x28x1-c5.2-p2-fl-fc128-do0.5-fc10"),
        ("pool_window=4", "in28x28x1-c5.2-p4-fl-fc128-do0.5-fc10"),
        ("extra=optimized-3x3", "in28x28x1-c3.2-p4-fl-fc128-do0.5-fc10"),
    ]


# --- randomized round-trip property -------------------------------------------


@st.composite
def valid_specs(draw):
    layers = [LayerSpec.input(draw(st.sampled_from([8, 16, 28])), draw(st.sampled_from([8, 16, 28])), draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["conv", "maxpool", "dropout"]))
        if kind == "conv":
            layers.append(LayerSpec.conv(draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 8))))
        elif kind == "maxpool":
            layers.append(LayerSpec.maxpool(2))
        else:
            layers.append(LayerSpec.dropout(draw(st.floats(min_value=1e-6, max_value=1.0))))
    layers.append(LayerSpec.flatten())
    for _ in range(draw(st.integers(0, 2))):
        layers.append(LayerSpec.dense(draw(st.integers(1, 64))))
        if draw(st.booleans()):
            layers.append(LayerSpec.dropout(0.5))
    layers.append(LayerSpec.dense(10))
    name = draw(st.sampled_from(["", "net", "candidate-1"]))
    return NetSpec(name, tuple(layers))


@given(valid_specs())
@settings(max_examples=80, deadline=None)
def test_round_trip_random_specs(spec):
    try:
        propagate_shapes(spec)
    except SpecError:
        pass  # round-trip must hold even for shape-invalid chains
    assert parse_spec(serialize_spec(spec)) == spec
