"""Config validation and the key = value round-trip."""

import dataclasses

import pytest

from ftmr.config import ConfigError, JobConfig


def test_defaults_are_valid():
    JobConfig().validate()


@pytest.mark.parametrize(
    "config",
    [
        JobConfig(),
        JobConfig(benchmark="pagerank", p=8, seed=42, iterations=7),
        JobConfig(recovery_point_interval="input-only"),
        JobConfig(backup_mode="single", single_recoverer=True),
        JobConfig(benchmark="cc", avg_degree=2.5, group_size=2, p=8),
        JobConfig(benchmark="uniform", total_records=77),
    ],
)
def test_text_round_trip(config):
    assert JobConfig.from_text(config.to_text()) == config


def test_from_text_parses_comments_and_whitespace():
    config = JobConfig.from_text(
        """
        # a saved run
        benchmark = cc        # trailing comment
        p = 8
        seed=3
        avg_degree = none
        single_recoverer = yes
        """
    )
    assert config.benchmark == "cc"
    assert config.p == 8
    assert config.seed == 3
    assert config.avg_degree is None
    assert config.single_recoverer is True


def test_from_text_interval_forms():
    assert JobConfig.from_text("recovery_point_interval = 4").recovery_point_interval == 4
    assert (
        JobConfig.from_text("recovery_point_interval = input-only").recovery_point_interval
        == "input-only"
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("wat", "expected 'key = value'"),
        ("frobnicate = 3", "unknown key"),
        ("p = many", "wants an integer"),
        ("single_recoverer = maybe", "wants true/false"),
        ("avg_degree = fast", "wants a number"),
        ("recovery_point_interval = never", "wants an integer"),
    ],
)
def test_from_text_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError, match="line 2"):
        try:
            JobConfig.from_text("# header\n" + text)
        except ConfigError as exc:
            assert fragment in str(exc)
            raise


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(benchmark="sorting"), "unknown benchmark"),
        (dict(p=0), "at least one PE"),
        (dict(backup_mode="raid5"), "unknown backup mode"),
        (dict(recovery_point_interval=0), "positive integer"),
        (dict(recovery_point_interval="weekly"), "positive integer"),
        (dict(group_size=3), "evenly divide"),
        (dict(group_size=4), "no backup targets"),
        (dict(iterations=0), "must be positive"),
        (dict(words_per_pe=-1), "must be positive"),
        (dict(avg_degree=0.0), "avg_degree must be positive"),
        (dict(benchmark="rmat", vertices_per_pe=100), "power-of-two"),
        (dict(avg_degree=float("inf")), "positive and finite"),
        (dict(avg_degree=float("nan")), "positive and finite"),
    ],
)
def test_validate_rejects(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        JobConfig(**kwargs).validate()


@pytest.mark.parametrize("name", [
    "p", "seed", "recovery_point_interval", "group_size", "vertices_per_pe",
    "words_per_pe", "dict_words", "iterations", "total_records", "avg_degree",
])
def test_validate_rejects_a_bool_for_a_number(name):
    # True is an int (and 1), but to_text writes it as "true", which
    # from_text refuses for a number
    config = JobConfig(**{name: True})
    with pytest.raises(ConfigError, match=name):
        config.validate()
    with pytest.raises(ConfigError, match=name):
        JobConfig.from_text(config.to_text())


@pytest.mark.parametrize("name, value", [
    ("p", 4.0), ("seed", 1.5), ("group_size", 2.0), ("vertices_per_pe", 8.5),
    ("words_per_pe", 100.0), ("dict_words", 10.0), ("iterations", 3.0),
    ("total_records", 1e5),
])
def test_validate_rejects_a_float_for_an_integer(name, value):
    # to_text writes a float as "8.5" or "4.0", which from_text refuses for
    # an integer field, and a float p would fail later inside the engine
    config = JobConfig(benchmark="pagerank", **{name: value})
    with pytest.raises(ConfigError, match=f"{name} wants an integer"):
        config.validate()
    with pytest.raises(ConfigError, match=name):
        JobConfig.from_text(config.to_text())


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity"])
def test_from_text_rejects_a_non_finite_degree(text):
    with pytest.raises(ConfigError, match="avg_degree must be positive and finite"):
        JobConfig.from_text(f"benchmark = pagerank\navg_degree = {text}\n")


def test_group_spanning_cluster_allowed_with_backup_off():
    JobConfig(group_size=4, backup_mode="off").validate()


def test_to_text_lists_every_field():
    text = JobConfig().to_text()
    for f in dataclasses.fields(JobConfig):
        assert f.name in text
