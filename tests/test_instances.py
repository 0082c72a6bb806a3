import json
import math

import numpy as np
import pytest

from robustpd.costs import cost_from_config
from robustpd.oco import ConfigError
from robustpd.instances import (
    GeneratorParams,
    MixedInstance,
    SchemaError,
    _uniforms,
    draw_matrix,
    generate,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    sample_realization,
    save_instance,
)


@pytest.fixture
def ocp_params():
    return GeneratorParams(problem="ocp", n=16, m=2, p=2.0, n_adv=4)


def test_generate_is_deterministic(ocp_params):
    a = generate(ocp_params, 123)
    b = generate(ocp_params, 123)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = generate(ocp_params, 124)
    assert instance_to_dict(a) != instance_to_dict(c)


def test_placements():
    for placement, expected in [
        ("prefix", "AAA" + "S" * 5),
        ("suffix", "S" * 5 + "AAA"),
    ]:
        params = GeneratorParams(n=8, n_adv=3, adv_placement=placement)
        inst = generate(params, 1)
        kinds = "".join("A" if e.kind == "adv" else "S" for e in inst.timeline)
        assert kinds == expected
    inst = generate(GeneratorParams(n=8, n_adv=0), 1)
    assert inst.n_adv == 0 and inst.n_stoch == 8
    inst = generate(GeneratorParams(n=8, n_adv=8), 1)
    assert inst.n_adv == 8 and not inst.support


def test_interleaved_spreads():
    inst = generate(GeneratorParams(n=12, n_adv=3, adv_placement="interleaved"), 5)
    pos = [t for t, e in enumerate(inst.timeline) if e.kind == "adv"]
    assert len(pos) == 3 and pos[0] < 4 and pos[-1] >= 8


def test_bad_params():
    with pytest.raises(ValueError):
        generate(GeneratorParams(n=4, n_adv=5), 1)


def test_sampling_determinism(ocp_params):
    inst = generate(ocp_params, 7)
    r1, r2 = sample_realization(inst, 3), sample_realization(inst, 3)
    assert np.array_equal(r1.drawn, r2.drawn)
    r3 = sample_realization(inst, 4)
    assert not np.array_equal(r1.drawn, r3.drawn)


def test_adversarial_entries_pass_through(ocp_params):
    inst = generate(ocp_params, 9)
    real = sample_realization(inst, 0)
    for t, entry in enumerate(inst.timeline):
        if entry.kind == "adv":
            assert real.points[t] is entry.data
            assert real.drawn[t] == -1
            assert not real.stoch_mask[t]


def test_all_adv_realization_equals_timeline():
    inst = generate(GeneratorParams(n=8, n_adv=8), 2)
    for rep in (0, 5):
        real = sample_realization(inst, rep)
        assert all(p is e.data for p, e in zip(real.points, inst.timeline))


def test_single_support_point_is_deterministic():
    inst = generate(GeneratorParams(n=8, n_adv=0, support_size=(1, 1)), 3)
    r1, r2 = sample_realization(inst, 0), sample_realization(inst, 99)
    assert np.array_equal(r1.drawn, r2.drawn)


def test_draw_frequencies():
    inst = generate(GeneratorParams(n=100, n_adv=0, support_size=(2, 2)), 17)
    inst.probs = np.array([0.5, 0.5])
    hits = total = 0
    for rep in range(1000):
        drawn = sample_realization(inst, rep).drawn
        hits += int(np.sum(drawn == 0))
        total += drawn.size
    freq = hits / total  # 1e5 draws
    assert abs(freq - 0.5) < 0.01


def choice_stream(inst, replication):
    """The documented stream of one replication, drawn with Generator.choice."""
    seq = np.random.SeedSequence(entropy=inst.seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


class TestDrawMatrix:
    """The draw matrix maps uniforms to support indices as Generator.choice does.

    ``draw_matrix`` relies on ``Generator.choice(k, size=n, p=probs)`` being
    ``searchsorted`` over the normalized cumulative probabilities; these
    tests pin that against numpy draw for draw.
    """

    @pytest.mark.parametrize("probs", [
        [0.2, 0.5, 0.3],
        [0.0, 0.6, 0.0, 0.4],  # zero-probability entries, inside and first
        [0.5, 0.5, 0.0],  # a zero-probability last entry
        [1.0],  # a one-element support
    ])
    def test_matches_generator_choice(self, probs):
        inst = generate(GeneratorParams(n=40, n_adv=6, support_size=(len(probs),) * 2), 11)
        inst.probs = np.array(probs)
        mask = inst.stoch_mask
        drawn = draw_matrix(inst, range(60))
        assert drawn.shape == (60, 40) and drawn.dtype == np.int64
        for rep, row in enumerate(drawn):
            ref = choice_stream(inst, rep).choice(len(probs), size=inst.n, p=inst.probs)
            assert np.array_equal(row[mask], ref[mask])
            assert np.all(row[~mask] == -1)
        assert not np.any(np.isin(drawn, np.flatnonzero(inst.probs == 0.0)))

    def test_matches_generator_choice_on_generated_instances(self):
        for i in range(40):
            params = GeneratorParams(n=16 + i % 5, n_adv=i % 7, support_size=(1, 4))
            inst = generate(params, 900 + i)
            mask = inst.stoch_mask
            for rep, row in enumerate(draw_matrix(inst, range(50))):
                ref = choice_stream(inst, rep).choice(len(inst.support), size=inst.n, p=inst.probs)
                assert np.array_equal(row, np.where(mask, ref, -1))

    def test_instance_without_support(self):
        inst = generate(GeneratorParams(n=8, n_adv=8), 2)
        assert inst.support == [] and inst.probs is None
        assert np.array_equal(draw_matrix(inst, range(3)), np.full((3, 8), -1))
        assert np.array_equal(sample_realization(inst, 4).drawn, np.full(8, -1))

    def test_sample_realization_is_a_row(self, ocp_params):
        inst = generate(ocp_params, 5)
        drawn = draw_matrix(inst, range(50))
        for rep in (0, 1, 17, 49):
            real = sample_realization(inst, rep)
            assert np.array_equal(real.drawn, drawn[rep])
            assert np.array_equal(real.stoch_mask, inst.stoch_mask)
            for t, (point, entry) in enumerate(zip(real.points, inst.timeline)):
                expected = entry.data if entry.kind == "adv" else inst.support[drawn[rep, t]]
                assert point is expected

    def test_rows_follow_the_replication_numbers(self, ocp_params):
        inst = generate(ocp_params, 6)
        assert np.array_equal(draw_matrix(inst, [7, 3]), draw_matrix(inst, range(8))[[7, 3]])


def numpy_uniforms(seed, keys, n):
    return np.array([
        np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))
        .random(n)
        for r in keys
    ])


class TestUniforms:
    """``_uniforms`` is numpy's ``SeedSequence``/``Philox`` stream, bit for bit."""

    # 2**32 and above take two entropy words, 2**64 + 3 three; 2**128 takes
    # five and 2**160 + 7 six, past the four words the pool hashes first.
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**31 - 1, 2**32, 2**33 + 5, 2**64 + 3, 2**128, 2**160 + 7]
    )
    @pytest.mark.parametrize("n", [1, 4, 5, 23, 28])
    @pytest.mark.parametrize("keys", [[2**32 - 1], range(300)], ids=["K=1", "K=300"])
    def test_matches_numpy(self, seed, n, keys):
        assert np.array_equal(_uniforms(seed, keys, n), numpy_uniforms(seed, keys, n))

    # Criterion 4's replication count: the keys span several Philox blocks.
    @pytest.mark.parametrize("n", [28, 64])
    def test_matches_numpy_at_criterion_4_size(self, n):
        keys = range(2000)
        assert np.array_equal(_uniforms(11, keys, n), numpy_uniforms(11, keys, n))

    @pytest.mark.parametrize("key", [-1, 2**32, 2**64 + 3, 1.5])
    def test_keys_outside_one_word_are_rejected(self, key):
        with pytest.raises(ConfigError, match=f"got {key!r}$"):
            _uniforms(3, [0, key], 4)


class TestSeedBoundary:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_instance(self, seed):
        inst = generate(GeneratorParams(n=8, n_adv=2), 4)
        with pytest.raises(SchemaError) as err:
            MixedInstance(inst.problem, inst.n, inst.m, inst.cost, inst.timeline,
                          inst.support, inst.probs, seed=seed)
        assert err.value.path == "seed"

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_generate(self, seed):
        with pytest.raises(SchemaError) as err:
            generate(GeneratorParams(n=8, n_adv=2), seed)
        assert err.value.path == "seed"


class TestRoundTrip:
    def test_ocp(self, tmp_path, ocp_params):
        inst = generate(ocp_params, 11)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instance_to_dict(again) == instance_to_dict(inst)

    def test_welfare(self, tmp_path):
        inst = generate(
            GeneratorParams(problem="welfare", n=12, m=2, p=2.0, n_adv=3), 12
        )
        path = tmp_path / "w.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instance_to_dict(again) == instance_to_dict(inst)
        real = sample_realization(again, 0)
        c, a = real.points[0] if not isinstance(real.points[0], tuple) else real.points[0]

    def test_full_precision(self, tmp_path, ocp_params):
        inst = generate(ocp_params, 13)
        path = tmp_path / "p.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert np.array_equal(np.asarray(again.probs), np.asarray(inst.probs))
        assert again.cost == inst.cost


# (golden instance, keys to the mutated value, bad value, JSON path it must name)
BAD_VALUES = [
    ("ocp", ("seed",), -3, "seed"),
    ("ocp", ("n",), "12", "n"),
    ("ocp", ("cost", "p"), 1.5, "cost.p"),
    ("ocp", ("cost", "p"), math.inf, "cost.p"),
    ("ocp", ("cost", "coeffs", 0), math.nan, "cost.coeffs"),
    ("ocp", ("cost",), {"family": "sum_of_powers", "m": 3, "p": 2.0, "coeffs": [1, 1, 1]},
     "cost.coeffs"),
    ("ocp", ("timeline", 2, "data", "options", 0, 1), math.nan, "timeline[2].data.options"),
    ("ocp", ("distribution", "support", 1, "options", 0, 0), math.nan,
     "distribution.support[1].options"),
    ("ocp", ("timeline", 2, "data", "options", 1, 0), 1.5, "timeline[2].data.options"),
    ("ocp", ("distribution", "support", 0, "options", 0, 1), 1.5,
     "distribution.support[0].options"),
    ("welfare", ("timeline", 0, "data", "c"), math.inf, "timeline[0].data.c"),
    ("welfare", ("distribution", "support", 1, "c"), math.nan, "distribution.support[1].c"),
    ("welfare", ("timeline", 4, "data", "a", 1), math.nan, "timeline[4].data.a"),
    ("welfare", ("distribution", "support", 0, "a", 0), math.nan, "distribution.support[0].a"),
    ("ocp", ("distribution", "support"), 5, "distribution.support"),
    ("ocp", ("distribution", "probs"), "ab", "distribution.probs"),
    ("ocp", ("problem",), "x", "problem"),
    ("welfare", ("cost", "coeffs", 1, 0), 1e189, "cost"),  # scale**p overflows
]


class TestSchemaErrors:
    def payload(self):
        inst = generate(GeneratorParams(n=8, n_adv=2), 4)
        return instance_to_dict(inst)

    def test_unsupported_version(self):
        obj = self.payload()
        obj["version"] = "v0"
        with pytest.raises(SchemaError, match="version"):
            instance_from_dict(obj)

    def test_missing_probs(self):
        obj = self.payload()
        del obj["distribution"]["probs"]
        with pytest.raises(SchemaError, match="distribution.probs"):
            instance_from_dict(obj)

    def test_missing_support_with_stoch_entries(self):
        obj = self.payload()
        obj["distribution"] = None
        with pytest.raises(SchemaError, match="support"):
            instance_from_dict(obj)

    def test_bad_kind(self):
        obj = self.payload()
        obj["timeline"][0] = {"kind": "other"}
        with pytest.raises(SchemaError, match=r"timeline\[0\].kind"):
            instance_from_dict(obj)

    def test_probs_must_sum_to_one(self):
        obj = self.payload()
        obj["distribution"]["probs"] = [0.4] * len(obj["distribution"]["probs"])
        with pytest.raises(SchemaError, match="probs"):
            instance_from_dict(obj)

    def test_negative_prob(self):
        obj = self.payload()
        probs = obj["distribution"]["probs"]
        probs[0], probs[1] = -0.1, probs[1] + probs[0] + 0.1
        with pytest.raises(SchemaError, match="probs"):
            instance_from_dict(obj)

    def test_timeline_length_mismatch(self):
        obj = self.payload()
        obj["n"] = 9
        with pytest.raises(SchemaError, match="timeline"):
            instance_from_dict(obj)

    def test_bad_cost_family(self):
        obj = self.payload()
        obj["cost"]["family"] = "nope"
        with pytest.raises(SchemaError, match="cost"):
            instance_from_dict(obj)

    def golden(self):
        with open("tests/data/ocp_small.json") as fh:
            return json.load(fh)

    def test_nan_probs(self):
        obj = self.golden()
        obj["distribution"]["probs"] = [float("nan")] * len(obj["distribution"]["probs"])
        with pytest.raises(SchemaError) as err:
            instance_from_dict(obj)
        assert err.value.path == "distribution.probs"

    def test_generated_instance_needs_p_at_least_2(self):
        with pytest.raises(SchemaError) as err:
            generate(GeneratorParams(problem="ocp", n=12, m=2, p=1.5, n_adv=3), 5)
        assert err.value.path == "cost.p"

    def test_fractional_seed(self):
        obj = self.golden()
        obj["seed"] = 1.7
        with pytest.raises(SchemaError) as err:
            instance_from_dict(obj)
        assert err.value.path == "seed"

    @pytest.mark.parametrize(
        "golden,keys,value,path", BAD_VALUES, ids=[f"{c[3]}={c[2]}" for c in BAD_VALUES]
    )
    def test_bad_value_names_its_path(self, golden, keys, value, path):
        with open(f"tests/data/{golden}_small.json") as fh:
            obj = json.load(fh)
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(SchemaError) as err:
            instance_from_dict(obj)
        assert err.value.path == path

    @pytest.mark.parametrize("pair", [[0.5], [0.5, 0.1, 0.2]], ids=["short", "long"])
    def test_linear_plus_power_pairs_need_two_numbers(self, pair):
        with open("tests/data/welfare_small.json") as fh:
            obj = json.load(fh)
        obj["cost"]["coeffs"] = [pair] * obj["m"]
        with pytest.raises(ValueError, match=r"\[scale, slope\] pairs"):
            cost_from_config(obj["cost"])
        with pytest.raises(SchemaError) as err:
            instance_from_dict(obj)
        assert err.value.path == "cost"

    def test_welfare_consumption_out_of_range(self):
        inst = generate(GeneratorParams(problem="welfare", n=8, n_adv=2), 6)
        obj = instance_to_dict(inst)
        for entry in obj["timeline"]:
            if entry["kind"] == "adv":
                entry["data"]["a"][0] = 1.5
                break
        with pytest.raises(SchemaError, match=r"\.a"):
            instance_from_dict(obj)


def test_golden_files_load():
    ocp = load_instance("tests/data/ocp_small.json")
    assert ocp.problem == "ocp" and ocp.n == 12
    welfare = load_instance("tests/data/welfare_small.json")
    assert welfare.problem == "welfare" and welfare.n == 12
    # goldens must stay sampleable
    assert sample_realization(ocp, 0).stoch_mask.sum() == ocp.n_stoch
    assert sample_realization(welfare, 0).stoch_mask.sum() == welfare.n_stoch
