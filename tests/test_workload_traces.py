"""Pinned bytes of the synthesized SPLASH traces.

Every application trace is a pure function of ``(app, num_procs, seed,
scale)``, and the on-disk trace cache (:mod:`repro.trace.diskcache`)
keys files by those parameters alone.  Any change to the workload
engine or the generators that alters a single access, or the bytes the
cache writes, must therefore bump ``diskcache.CACHE_VERSION``.  These
constants pin, per build:

* the content digest of the packed trace;
* the sha256 of the ``.ptrace`` file the disk cache writes for it;
* the trace name after the disk cache reloads that file.

A rewrite of the engine that keeps all three is invisible to every
cached result and to every replay.
"""

import hashlib

import pytest

from repro.trace import diskcache
from repro.workloads.profiles import build_app

# (app, num_procs, seed, scale, digest prefix, .ptrace sha256 prefix,
#  reloaded name)
PINNED = [
    ('cholesky', 16, 0, 0.02, "b71dbec690fb2daa175cc3305f768533", "d6f3c5a4980b9dd6d95ee44f0f16361e", 'cholesky'),
    ('cholesky', 16, 0, 0.05, "6f4febf4d2e0d9de2af86ae7d24768bc", "3a70e2b149f654a102650558afe08806", 'cholesky'),
    ('cholesky', 16, 1, 0.02, "5208f8742ad9cd0a0fc9cf56180f7261", "b81384c340a6d8c5ff38d1bdcdd0458b", 'cholesky'),
    ('cholesky', 16, 1, 0.05, "1c211691f3fbcccdbb70c3a2265d32c5", "ad3f5a19e1b1d6b67ca3c363d9d4dacc", 'cholesky'),
    ('cholesky', 16, 100000, 0.02, "a1c3353feb1aa792b2fd41582fe83b02", "b10de5deaded5ba0b6a412cf883a0873", 'cholesky'),
    ('cholesky', 16, 100000, 0.05, "e98fae0ab93f9e954468b5dd22720efb", "4cf2ee3e749ebacfe48c022f14e8b032", 'cholesky'),
    ('locusroute', 16, 0, 0.02, "be3d5e0bc961725037a81a1ec6034d76", "e8184965c8ec66f81232e560018fa511", 'locusroute'),
    ('locusroute', 16, 0, 0.05, "17b9d78b852cb5f71b26e8f577f17422", "26f6cbcfaff82355db358ca87a55073b", 'locusroute'),
    ('locusroute', 16, 1, 0.02, "9f23e02770f8884621f7f5c2776b1188", "f4abfb09afde58fe2c0c7886b79fb587", 'locusroute'),
    ('locusroute', 16, 1, 0.05, "858c9a0690e1c62a38f3687c3805a15f", "89bcb7205e005a29416ca1f162d346be", 'locusroute'),
    ('locusroute', 16, 100000, 0.02, "a06182d2730af1a9a3b412bb6f20ab43", "1626453a38c3717e20ccdb45173d3a32", 'locusroute'),
    ('locusroute', 16, 100000, 0.05, "bdc403d91878767c5a7b1216914b0500", "81e4cacf131d73bfee583fc8de547ee1", 'locusroute'),
    ('mp3d', 16, 0, 0.02, "1de760e03b7afcd1b86b189fcb07e4cf", "1f6939fbd66fc111496e56c21150b8ce", 'mp3d'),
    ('mp3d', 16, 0, 0.05, "1de760e03b7afcd1b86b189fcb07e4cf", "1f6939fbd66fc111496e56c21150b8ce", 'mp3d'),
    ('mp3d', 16, 1, 0.02, "880ec4890f677b21ae50593321137e2d", "79ea5c5ad37aba3e6b1c1745f5d69739", 'mp3d'),
    ('mp3d', 16, 1, 0.05, "880ec4890f677b21ae50593321137e2d", "79ea5c5ad37aba3e6b1c1745f5d69739", 'mp3d'),
    ('mp3d', 16, 100000, 0.02, "4ab638fb993a8a4b3e0d277380ced086", "2930271f12841cf700b2b5da2e4f171d", 'mp3d'),
    ('mp3d', 16, 100000, 0.05, "4ab638fb993a8a4b3e0d277380ced086", "2930271f12841cf700b2b5da2e4f171d", 'mp3d'),
    ('pthor', 16, 0, 0.02, "dc3ba1f839b442a46e0b3233000a5e02", "13b306f8306cd627fbcd3b4b47af5400", 'pthor'),
    ('pthor', 16, 0, 0.05, "dc3ba1f839b442a46e0b3233000a5e02", "13b306f8306cd627fbcd3b4b47af5400", 'pthor'),
    ('pthor', 16, 1, 0.02, "f3aa6d801244b38b8a21bfd1218c004a", "3a00ddfc125dd9e6ef9b7004365c3c92", 'pthor'),
    ('pthor', 16, 1, 0.05, "f3aa6d801244b38b8a21bfd1218c004a", "3a00ddfc125dd9e6ef9b7004365c3c92", 'pthor'),
    ('pthor', 16, 100000, 0.02, "46ccfbe6230cf74ab55b53dbaf60ec58", "3f24b0aaf7110ac99d275ccb95c3d23a", 'pthor'),
    ('pthor', 16, 100000, 0.05, "46ccfbe6230cf74ab55b53dbaf60ec58", "3f24b0aaf7110ac99d275ccb95c3d23a", 'pthor'),
    ('water', 16, 0, 0.02, "fa6e304a144570da921194d8e86fb60e", "3769b426ac2cbc21b0a465802efed594", 'water'),
    ('water', 16, 0, 0.05, "fa6e304a144570da921194d8e86fb60e", "3769b426ac2cbc21b0a465802efed594", 'water'),
    ('water', 16, 1, 0.02, "90b2dd4f3e71beaf94c9d4dd460a3c39", "49496e36189ef991c6d1c045900f4eb0", 'water'),
    ('water', 16, 1, 0.05, "90b2dd4f3e71beaf94c9d4dd460a3c39", "49496e36189ef991c6d1c045900f4eb0", 'water'),
    ('water', 16, 100000, 0.02, "721f2bc76f5bd5cfa4189470a8c3d9a4", "5d55d4a783b04f93fa4d58e29f8b082d", 'water'),
    ('water', 16, 100000, 0.05, "721f2bc76f5bd5cfa4189470a8c3d9a4", "5d55d4a783b04f93fa4d58e29f8b082d", 'water'),
    ('mp3d', 1, 0, 0.02, "cbab05d168427a5fb65a4681afd26d53", "dfa77172d90ce068593858918237efb7", 'mp3d'),
    ('mp3d', 4, 0, 0.02, "5de503580d851ce4f81262ea2bbcbe6a", "793e02f963293cbf690abc89c69a6490", 'mp3d'),
    ('mp3d', 64, 0, 0.02, "2f1bc917674f9453e537ddc0470ce0e3", "a53bb84d9403c55e54de596a04b9068e", 'mp3d'),
]


@pytest.mark.parametrize(
    "app,num_procs,seed,scale,digest,file_sha,name",
    PINNED,
    ids=[f"{r[0]}-p{r[1]}-s{r[2]}-x{r[3]}" for r in PINNED],
)
def test_synthesized_trace_bytes_are_pinned(
    tmp_path, monkeypatch, app, num_procs, seed, scale, digest, file_sha, name
):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    built = diskcache.load_or_build(app, num_procs, seed, scale, build_app)
    assert built.name == name
    assert built.pack().digest()[:32] == digest

    path = diskcache.cache_path(app, num_procs, seed, scale)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:32] == file_sha

    def must_not_rebuild(*args, **kwargs):
        raise AssertionError("expected a disk-cache hit")

    reloaded = diskcache.load_or_build(
        app, num_procs, seed, scale, must_not_rebuild
    )
    assert reloaded.name == name
    assert reloaded.pack().name == name
    assert reloaded.pack().digest()[:32] == digest


#: The disk-cache version the pins above were recorded under.  A change
#: that alters the pinned bytes bumps both together; bumping the version
#: alone would orphan every cached trace without changing a byte.
PINNED_UNDER_VERSION = 1


def test_cache_version_matches_the_pins():
    assert diskcache.CACHE_VERSION == PINNED_UNDER_VERSION
