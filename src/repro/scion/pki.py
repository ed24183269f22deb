"""SCION control-plane PKI.

SCION anchors trust per isolation domain: each ISD publishes a Trust Root
Configuration (TRC) naming the public keys of its core ASes; core ASes act
as certificate authorities issuing certificates to the ASes of their ISD
(paper §4: ISDs "define local trust roots for SCION's control plane PKI").

The PKI here is fully functional: every AS gets an RSA key pair, core
keys are listed in the ISD's TRC, AS certificates are signed by a core
CA, and beacon verification walks the chain certificate → TRC. Tampering
with any signed byte makes verification fail (tests assert this). The
RSA material is generated on first use (see :class:`ControlPlanePki`).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.crypto.mac import derive_forwarding_key
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from repro.errors import CryptoError, VerificationError
from repro.topology.graph import AsTopology
from repro.topology.isd_as import IsdAs


@dataclass(frozen=True)
class Trc:
    """Trust Root Configuration of one ISD.

    Attributes:
        isd: the isolation domain.
        serial: version counter (TRC updates are out of scope; always 1).
        core_keys: public keys of the ISD's core ASes, the trust anchors.
    """

    isd: int
    serial: int
    core_keys: dict[IsdAs, RsaPublicKey]


@dataclass(frozen=True)
class AsCertificate:
    """An AS certificate issued by a core AS of the subject's ISD."""

    subject: IsdAs
    public_key: RsaPublicKey
    issuer: IsdAs
    signature: int

    def signed_payload(self) -> bytes:
        """The byte string the issuer signed."""
        return (f"cert|{self.subject}|{self.public_key.n:x}|"
                f"{self.public_key.e:x}|{self.issuer}").encode()


class _Asymmetric(NamedTuple):
    """The RSA-derived half of the PKI, built together on first use."""

    keypairs: dict[IsdAs, RsaKeyPair]
    trcs: dict[int, Trc]
    certificates: dict[IsdAs, AsCertificate]


class ControlPlanePki:
    """Key material and verification logic for a whole topology.

    Everything derives deterministically from ``seed``:

    * a data-plane forwarding key per AS (for hop-field MACs),
    * an RSA key pair per AS,
    * one TRC per ISD listing its core ASes' public keys,
    * an AS certificate per AS, issued by the lowest-numbered core AS of
      its ISD (core ASes self-issue).

    Routers need the forwarding keys to be built, so construction derives
    those. The RSA material is generated for all ASes at once by the first
    :meth:`sign`, :meth:`verify`, :meth:`verify_certificate`,
    :attr:`trcs` or :attr:`certificates` access, from the same private RNG
    stream continued past the master secret — a world that never signs (a
    single AS has nobody to beacon to) never pays for Miller–Rabin, and a
    world that does gets the keys it would have got at construction. Which
    ASes exist, which anchor each ISD and who issues to whom are captured
    at construction, so editing the topology afterwards cannot change
    which keys exist.

    The private signing keys live in ``self`` because the simulator plays
    all parties; the verification API only ever uses public material.
    """

    def __init__(self, topology: AsTopology, seed: int = 0,
                 key_bits: int = 256) -> None:
        self.topology = topology
        self._key_bits = key_bits
        self._rng = random.Random(("pki", seed).__repr__())
        master_secret = self._rng.randbytes(32)
        infos = topology.ases()
        self._forwarding_keys: dict[IsdAs, bytes] = {
            info.isd_as: derive_forwarding_key(master_secret,
                                               str(info.isd_as))
            for info in infos}
        self._trc_cores: dict[int, tuple[IsdAs, ...]] = {
            isd: tuple(info.isd_as for info in infos
                       if info.core and info.isd == isd)
            for isd in topology.isds()}
        #: subject -> issuing CA, in ``topology.ases()`` order (the order
        #: key pairs are drawn from the RNG).
        self._issuers: dict[IsdAs, IsdAs] = {}
        for info in infos:
            cores = self._trc_cores[info.isd]
            if not cores:
                raise CryptoError(f"ISD {info.isd} has no core CA")
            self._issuers[info.isd_as] = (info.isd_as if info.core
                                          else min(cores))

    @functools.cached_property
    def _asymmetric(self) -> _Asymmetric:
        keypairs = {isd_as: generate_keypair(self._rng, bits=self._key_bits)
                    for isd_as in self._issuers}
        trcs = {isd: Trc(isd=isd, serial=1,
                         core_keys={core: keypairs[core].public
                                    for core in cores})
                for isd, cores in self._trc_cores.items()}
        certificates = {}
        for subject, issuer in self._issuers.items():
            unsigned = AsCertificate(subject=subject,
                                     public_key=keypairs[subject].public,
                                     issuer=issuer, signature=0)
            certificates[subject] = replace(
                unsigned,
                signature=keypairs[issuer].sign(unsigned.signed_payload()))
        return _Asymmetric(keypairs, trcs, certificates)

    @property
    def trcs(self) -> dict[int, Trc]:
        """One TRC per ISD."""
        return self._asymmetric.trcs

    @property
    def certificates(self) -> dict[IsdAs, AsCertificate]:
        """One certificate per AS."""
        return self._asymmetric.certificates

    # -- signing (used by the beaconing service) -------------------------------

    def sign(self, isd_as: IsdAs, payload: bytes) -> int:
        """Sign ``payload`` with the AS's private key."""
        keypair = self._asymmetric.keypairs.get(isd_as)
        if keypair is None:
            raise CryptoError(f"no key pair for {isd_as}")
        return keypair.sign(payload)

    def forwarding_key(self, isd_as: IsdAs) -> bytes:
        """The AS's data-plane forwarding key (hop-field MACs)."""
        try:
            return self._forwarding_keys[isd_as]
        except KeyError:
            raise CryptoError(f"no forwarding key for {isd_as}") from None

    # -- verification -----------------------------------------------------------

    def verify_certificate(self, certificate: AsCertificate) -> None:
        """Verify a certificate against its ISD's TRC.

        Raises :class:`VerificationError` if the issuer is not a trust
        anchor of the subject's ISD or the signature is invalid.
        """
        trc = self.trcs.get(certificate.subject.isd)
        if trc is None:
            raise VerificationError(f"no TRC for ISD {certificate.subject.isd}")
        issuer_key = trc.core_keys.get(certificate.issuer)
        if issuer_key is None:
            raise VerificationError(
                f"issuer {certificate.issuer} is not a core AS of "
                f"ISD {certificate.subject.isd}")
        issuer_key.verify(certificate.signed_payload(), certificate.signature)

    def verify(self, isd_as: IsdAs, payload: bytes, signature: int) -> None:
        """Verify an AS's signature, chaining through its certificate.

        This is the beacon-verification entry point: it checks the AS's
        certificate against the TRC, then the signature against the
        certified key.
        """
        certificate = self.certificates.get(isd_as)
        if certificate is None:
            raise VerificationError(f"no certificate for {isd_as}")
        self.verify_certificate(certificate)
        certificate.public_key.verify(payload, signature)
