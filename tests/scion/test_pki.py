"""Control-plane PKI: TRCs, certificate chains, tamper detection."""

import dataclasses

import pytest

from repro.crypto.mac import hop_mac, verify_hop_mac
from repro.crypto.rsa import RsaPublicKey, generate_keypair
from repro.errors import CryptoError, VerificationError
from repro.experiments import local_setup
from repro.internet.build import Internet
from repro.scion import pki as pki_module
from repro.scion.pki import AsCertificate, ControlPlanePki
from repro.scion.revocation import Revocation
from repro.topology.defaults import LOCAL_AS, local_testbed, remote_testbed
from repro.topology.graph import AsTopology
from repro.topology.isd_as import IsdAs


@pytest.fixture(scope="module")
def pki():
    topology, _ases = remote_testbed()
    return ControlPlanePki(topology, seed=11)


@pytest.fixture(scope="module")
def testbed():
    return remote_testbed()


class TestTrcs:
    def test_one_trc_per_isd(self, pki, testbed):
        topology, _ases = testbed
        assert sorted(pki.trcs) == topology.isds()

    def test_trc_lists_exactly_the_isd_cores(self, pki, testbed):
        topology, _ases = testbed
        for isd, trc in pki.trcs.items():
            expected = {info.isd_as for info in topology.core_ases()
                        if info.isd == isd}
            assert set(trc.core_keys) == expected


class TestCertificates:
    def test_every_as_has_a_certificate(self, pki, testbed):
        topology, _ases = testbed
        for info in topology.ases():
            assert info.isd_as in pki.certificates

    def test_core_as_self_issues(self, pki, testbed):
        _topology, ases = testbed
        certificate = pki.certificates[ases.local_core]
        assert certificate.issuer == ases.local_core

    def test_leaf_issued_by_isd_core(self, pki, testbed):
        _topology, ases = testbed
        certificate = pki.certificates[ases.client]
        assert certificate.issuer == ases.local_core

    def test_chain_verifies(self, pki, testbed):
        topology, _ases = testbed
        for info in topology.ases():
            pki.verify_certificate(pki.certificates[info.isd_as])

    def test_tampered_certificate_fails(self, pki, testbed):
        _topology, ases = testbed
        genuine = pki.certificates[ases.client]
        forged = dataclasses.replace(genuine, subject=ases.nearby_server)
        with pytest.raises(VerificationError):
            pki.verify_certificate(forged)

    def test_issuer_outside_trc_fails(self, pki, testbed):
        _topology, ases = testbed
        genuine = pki.certificates[ases.client]
        forged = dataclasses.replace(genuine, issuer=ases.client)
        with pytest.raises(VerificationError):
            pki.verify_certificate(forged)


class TestSigning:
    def test_sign_verify_roundtrip(self, pki, testbed):
        _topology, ases = testbed
        signature = pki.sign(ases.client, b"beacon-bytes")
        pki.verify(ases.client, b"beacon-bytes", signature)

    def test_cross_as_signature_rejected(self, pki, testbed):
        _topology, ases = testbed
        signature = pki.sign(ases.client, b"payload")
        with pytest.raises(VerificationError):
            pki.verify(ases.nearby_server, b"payload", signature)

    def test_unknown_as_rejected(self, pki):
        ghost = IsdAs.parse("9-999")
        with pytest.raises(VerificationError):
            pki.verify(ghost, b"x", 1)

    def test_forwarding_keys_distinct(self, pki, testbed):
        topology, _ases = testbed
        keys = {pki.forwarding_key(info.isd_as) for info in topology.ases()}
        assert len(keys) == len(topology.ases())

    def test_deterministic_from_seed(self, testbed):
        topology, ases = testbed
        a = ControlPlanePki(topology, seed=5)
        b = ControlPlanePki(topology, seed=5)
        assert a.certificates[ases.client].public_key == \
            b.certificates[ases.client].public_key

    def test_different_seeds_differ(self, testbed):
        topology, ases = testbed
        a = ControlPlanePki(topology, seed=5)
        b = ControlPlanePki(topology, seed=6)
        assert a.certificates[ases.client].public_key != \
            b.certificates[ases.client].public_key


#: ``remote_testbed()`` at seed 11, recorded with the eager constructor
#: (key pairs drawn in ``__init__``): AS -> (public-key fingerprint,
#: certificate issuer, certificate signature).
PINNED_SEED_11 = {
    "1-ff00:0:110": ("458cc44f38f2e268", "1-ff00:0:110",
        0x74b005a2693685cfe05d03f19e8b94a27ece2a725f3872f5dd66cf779f433a5),
    "1-ff00:0:120": ("590d4e733c56b956", "1-ff00:0:110",
        0x618949c7d57885c7877c84d7d83e70628bc1f33726f560cd5365fb538df440ef),
    "1-ff00:0:121": ("47e82fcbcb59d72e", "1-ff00:0:110",
        0x89bc13ddf492642ba6697f9b9578330218c9a65afa6c8c311d6781ce260b3357),
    "2-ff00:0:210": ("03d1b2a09a4b855c", "2-ff00:0:210",
        0x54951b1fbe0e0f5d3add1df283a924f24db65696280acbd99953efd05ffa5567),
    "2-ff00:0:220": ("c861f1db0a2e4344", "2-ff00:0:210",
        0x4f18ae5d7edc8a813a56f88510d77f18538f083655b9a04597fadb5949f39bc9),
    "3-ff00:0:310": ("2738283a85cb29bf", "3-ff00:0:310",
        0x765b0e7f0dbedd74b20c7749b43f2c360ae227e39d6d4962dff98b7a9797f1b),
    "3-ff00:0:320": ("70cd30f3b7a29350", "3-ff00:0:310",
        0x1a4b5165daf81eae9c46f5ff881b87d0663cbc0553bb9ae6bbee11189fabc2a0),
}
PINNED_CLIENT_SIGNATURE = \
    0x5c873a789c6d0eb60248fd2970faac010cce49d617411a23318969f3b2696a8e


@pytest.fixture
def keygens(monkeypatch):
    """Counts :func:`generate_keypair` calls made by the PKI."""
    calls = []

    def counting(rng, bits):
        calls.append(bits)
        return generate_keypair(rng, bits=bits)

    monkeypatch.setattr(pki_module, "generate_keypair", counting)
    return calls


#: Every way into the RSA material, by the name the docs give it.
FIRST_USES = {
    "sign": lambda pki, ases: pki.sign(ases.client, b"x"),
    "verify": lambda pki, ases: pytest.raises(
        VerificationError, pki.verify, ases.client, b"x", 1),
    "verify_certificate": lambda pki, ases: pytest.raises(
        VerificationError, pki.verify_certificate,
        AsCertificate(ases.client, RsaPublicKey(n=35, e=5), ases.client, 1)),
    "trcs": lambda pki, ases: pki.trcs,
    "certificates": lambda pki, ases: pki.certificates,
}


class TestLazyMaterial:
    def test_keys_and_certificates_equal_the_eager_values(self, pki, testbed):
        _topology, ases = testbed
        recorded = {
            str(subject): (cert.public_key.fingerprint(), str(cert.issuer),
                           cert.signature)
            for subject, cert in pki.certificates.items()}
        assert recorded == PINNED_SEED_11
        assert list(recorded) == list(PINNED_SEED_11)
        for trc in pki.trcs.values():
            for core, key in trc.core_keys.items():
                assert key.fingerprint() == PINNED_SEED_11[str(core)][0]
        assert pki.sign(ases.client, b"beacon-bytes") == \
            PINNED_CLIENT_SIGNATURE

    def test_single_as_world_generates_no_keys(self, keygens):
        """A laptop world loads a page without one Miller–Rabin round;
        the data plane's symmetric keys are there all the same."""
        page = local_setup.make_page("SCION-only", 4, 0)
        world = local_setup.build_local_world(page, seed=3)
        assert local_setup.load_once(world) > 0
        assert keygens == []
        pki = world.internet.pki
        router = world.internet.routers[LOCAL_AS]
        assert router.forwarding_key == pki.forwarding_key(LOCAL_AS)
        mac = hop_mac(router.forwarding_key, 1, 63, 0, 2)
        verify_hop_mac(pki.forwarding_key(LOCAL_AS), 1, 63, 0, 2, mac)
        with pytest.raises(VerificationError):
            verify_hop_mac(pki.forwarding_key(LOCAL_AS), 1, 63, 0, 3, mac)
        assert keygens == []

    @pytest.mark.parametrize("first", sorted(FIRST_USES))
    def test_first_use_builds_every_as_once(self, first, keygens, testbed):
        topology, ases = testbed
        pki = ControlPlanePki(topology, seed=11)
        assert keygens == []
        FIRST_USES[first](pki, ases)
        assert len(keygens) == len(topology.ases())
        for use in FIRST_USES.values():
            use(pki, ases)
        assert len(keygens) == len(topology.ases())
        # Whichever door was first, the keys are the pinned ones.
        assert pki.sign(ases.client, b"beacon-bytes") == \
            PINNED_CLIENT_SIGNATURE

    def test_snapshot_hit_shares_the_material(self, keygens):
        first = Internet(local_testbed(), seed=1)
        second = Internet(local_testbed(), seed=1)
        assert keygens == []
        certificates = first.pki.certificates
        assert second.pki.certificates is certificates
        assert len(keygens) == 1

    def test_multi_as_world_materializes_at_its_first_beacon(self, keygens,
                                                            testbed):
        topology, _ases = testbed
        Internet(topology, seed=1)
        assert len(keygens) == len(topology.ases())

    def test_as_added_after_construction_gets_no_key(self, keygens):
        topology, ases = remote_testbed()
        pki = ControlPlanePki(topology, seed=11)
        late = topology.add_as("1-ff00:0:999").isd_as
        assert late not in pki.certificates
        assert len(keygens) == len(PINNED_SEED_11)
        assert pki.sign(ases.client, b"beacon-bytes") == \
            PINNED_CLIENT_SIGNATURE
        with pytest.raises(CryptoError):
            pki.sign(late, b"x")
        with pytest.raises(CryptoError):
            pki.forwarding_key(late)
        with pytest.raises(VerificationError):
            pki.verify(late, b"x", 1)

    def test_coreless_isd_is_rejected_at_construction(self):
        topology = AsTopology()
        topology.add_as("1-1")
        with pytest.raises(CryptoError):
            ControlPlanePki(topology, seed=1)

    def test_late_revocation_in_a_single_as_world_verifies(self, keygens):
        """Nothing signs while a laptop world is built and browsed; a
        revocation originated afterwards still chains to the TRC."""
        page = local_setup.make_page("SCION-only", 2, 0)
        world = local_setup.build_local_world(page, seed=3)
        local_setup.load_once(world)
        assert keygens == []
        pki = world.internet.pki
        revocation = Revocation.originate(pki, LOCAL_AS, 1,
                                          issued_ms=world.internet.loop.now,
                                          ttl_ms=10_000.0)
        revocation.verify(pki)
        assert len(keygens) == 1
        with pytest.raises(VerificationError):
            dataclasses.replace(revocation, ifid=2).verify(pki)
