"""The uniform env-knob contract every toggleable component shares.

One parsing rule (``repro.internet.knobs``), consumed by every
``*_enabled`` resolver — the spelling matrix is pinned once here so a
new component cannot quietly accept a different dialect.
"""

import os

import pytest

from repro.errors import ReproError
from repro.internet import knobs

KNOB = "REPRO_TEST_KNOB"


class TestSpellings:
    @pytest.mark.parametrize("raw", [
        "0", "false", "no", "off",
        "FALSE", "No", "OFF", "False",
        " 0 ", "\toff\n", "  NO",
    ])
    def test_disabling_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert knobs.knob(KNOB) is False
        assert knobs.knob(KNOB, default=False) is False

    @pytest.mark.parametrize("raw", [
        "1", "true", "yes", "on", "ON", "enabled", "2", "anything",
    ])
    def test_enabling_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert knobs.knob(KNOB) is True
        assert knobs.knob(KNOB, default=False) is True

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_means_default(self, monkeypatch, default):
        monkeypatch.delenv(KNOB, raising=False)
        assert knobs.knob(KNOB, default=default) is default

    @pytest.mark.parametrize("raw", ["", "   ", "\t"])
    def test_empty_means_default(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert knobs.knob(KNOB, default=True) is True
        assert knobs.knob(KNOB, default=False) is False


class TestResolveKnob:
    @pytest.mark.parametrize("env_raw", ["0", "1"])
    def test_explicit_override_beats_environment(self, monkeypatch,
                                                 env_raw):
        monkeypatch.setenv(KNOB, env_raw)
        assert knobs.resolve_knob(KNOB, True) is True
        assert knobs.resolve_knob(KNOB, False) is False

    def test_none_defers_to_environment(self, monkeypatch):
        monkeypatch.setenv(KNOB, "off")
        assert knobs.resolve_knob(KNOB, None) is False
        monkeypatch.setenv(KNOB, "on")
        assert knobs.resolve_knob(KNOB, None) is True

    def test_none_and_unset_means_default(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert knobs.resolve_knob(KNOB, None, default=True) is True
        assert knobs.resolve_knob(KNOB, None, default=False) is False


def _workers(override=None):
    from repro.experiments.harness import resolve_workers
    return resolve_workers(override)


def _users(override=None):
    from repro.experiments.population import resolve_users
    return resolve_users(override)


@pytest.mark.parametrize("name,resolve,default", [
    ("REPRO_WORKERS", _workers, os.cpu_count() or 1),
    ("REPRO_POPULATION_USERS", _users, 1000),
])
class TestResolveIntKnob:
    """Both integer knobs resolve through ``resolve_int_knob``: one
    parser, one exception type, one meaning of ``0``."""

    @pytest.mark.parametrize("raw", [None, "", "  "])
    def test_unset_or_empty_means_default(self, monkeypatch, name, resolve,
                                          default, raw):
        if raw is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, raw)
        assert resolve() == default

    @pytest.mark.parametrize("raw,value", [("7", 7), (" 12 ", 12),
                                           ("0", 1), ("-3", 1)])
    def test_an_integer_is_clamped_to_the_minimum(self, monkeypatch, name,
                                                  resolve, default, raw,
                                                  value):
        monkeypatch.setenv(name, raw)
        assert resolve() == value

    @pytest.mark.parametrize("raw", ["off", "many", "1.5"])
    def test_anything_else_raises_repro_error(self, monkeypatch, name,
                                              resolve, default, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ReproError, match=name):
            resolve()

    def test_explicit_override_beats_environment(self, monkeypatch, name,
                                                 resolve, default):
        monkeypatch.setenv(name, "many")
        assert resolve(5) == 5
        assert resolve(0) == 1


class TestForced:
    def test_pins_and_restores_unset(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        with knobs.forced(KNOB, False):
            assert os.environ[KNOB] == "0"
            assert knobs.knob(KNOB) is False
        assert KNOB not in os.environ

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv(KNOB, "off")
        with knobs.forced(KNOB, True):
            assert os.environ[KNOB] == "1"
        assert os.environ[KNOB] == "off"

    def test_restores_on_raise(self, monkeypatch):
        monkeypatch.setenv(KNOB, "yes")
        with pytest.raises(RuntimeError):
            with knobs.forced(KNOB, False):
                raise RuntimeError("boom")
        assert os.environ[KNOB] == "yes"

    def test_block_may_unset_the_variable(self, monkeypatch):
        """A "clear every REPRO_*" inside a pinned block (the
        benchmark's ``pin_environment``) must not break the restore."""
        monkeypatch.delenv(KNOB, raising=False)
        with knobs.forced(KNOB, False):
            del os.environ[KNOB]
        assert KNOB not in os.environ


class TestForcedMany:
    OTHER = "REPRO_TEST_KNOB_2"

    def test_pins_several_and_restores(self, monkeypatch):
        monkeypatch.setenv(KNOB, "off")
        monkeypatch.delenv(self.OTHER, raising=False)
        with knobs.forced_many({KNOB: True, self.OTHER: False}):
            assert os.environ[KNOB] == "1"
            assert os.environ[self.OTHER] == "0"
        assert os.environ[KNOB] == "off"
        assert self.OTHER not in os.environ

    def test_restores_on_raise(self, monkeypatch):
        monkeypatch.setenv(KNOB, "1")
        monkeypatch.setenv(self.OTHER, "no")
        with pytest.raises(ValueError):
            with knobs.forced_many({KNOB: False, self.OTHER: True}):
                raise ValueError("boom")
        assert os.environ[KNOB] == "1"
        assert os.environ[self.OTHER] == "no"


class TestRefactoredSitesShareTheRule:
    """The pre-existing resolvers all accept the full spelling set now
    that they route through ``repro.internet.knobs``."""

    @pytest.mark.parametrize("raw", ["0", "off", "FALSE", " no "])
    def test_fastpath_enabled(self, monkeypatch, raw):
        from repro.simnet.fastpath import FASTPATH_ENV, fastpath_enabled

        monkeypatch.setenv(FASTPATH_ENV, raw)
        assert fastpath_enabled() is False
        assert fastpath_enabled(True) is True

    @pytest.mark.parametrize("raw", ["0", "off", "FALSE", " no "])
    def test_revocation_enabled(self, monkeypatch, raw):
        from repro.scion.revocation import REVOCATION_ENV, revocation_enabled

        monkeypatch.setenv(REVOCATION_ENV, raw)
        assert revocation_enabled() is False
        assert revocation_enabled(True) is True
