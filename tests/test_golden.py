"""Golden bytes: the sha256 of every artifact of a few small CLI runs.

A change that is meant to keep the numerics (a faster solver path, a lazy
import, a rewritten writer) must leave these digests alone.  A change that
alters the numerics on purpose updates them and states the new error
against an oracle.  The digests hold for the reference toolchain (CPython
3.11, numpy 2.4, scipy 1.17 with OpenBLAS); another LAPACK may move the
last printed digit of a banded solve.
"""

import hashlib

import pytest

from entroflow.cli import main

RUNS = {
    "heat": ["simulate", "--flow", "heat", "--init", "gaussian:0.5:0.8",
             "--N", "129", "--dt", "0.005", "--T", "0.1",
             "--snapshot-every", "5", "--diagnose"],
    "fokker_planck": ["simulate", "--flow", "fokker_planck",
                      "--init", "gaussian:2:1", "--N", "129", "--dt", "0.01",
                      "--T", "0.3", "--snapshot-every", "10", "--diagnose"],
    "fast_diffusion": ["simulate", "--flow", "fast_diffusion", "--dim", "3",
                       "--N", "64", "--dt", "0.005", "--T", "0.1",
                       "--snapshot-every", "5", "--diagnose"],
    "jko": ["jko", "--functional", "fokker_planck", "--init", "gaussian:1:1",
            "--tau", "0.05", "--steps", "4", "--quantiles", "128",
            "--N", "129", "--compare-pde"],
    "jko_entropy": ["jko", "--functional", "entropy", "--init",
                    "gaussian:0.5:0.8", "--tau", "0.05", "--steps", "4",
                    "--quantiles", "128", "--N", "129", "--compare-pde"],
    "fast_diffusion_dim5": ["simulate", "--flow", "fast_diffusion",
                            "--dim", "5", "--N", "64", "--dt", "0.005",
                            "--T", "0.1", "--snapshot-every", "5",
                            "--diagnose"],
    "w2": ["w2", "--mu", "gaussian:0:1", "--nu", "gaussian:1:1.5"],
    "fast_diffusion_n4096": ["simulate", "--flow", "fast_diffusion",
                             "--dim", "3", "--N", "4096", "--T", "0.05",
                             "--snapshot-every", "25", "--diagnose"],
    "jko_entropy_m65536": ["jko", "--functional", "entropy", "--init",
                           "gaussian:0.5:0.8", "--quantiles", "65536",
                           "--steps", "3"],
    "diagnose": ["diagnose"],
    "check_lsi": ["check", "--inequality", "lsi"],
    **{f"check_{name}": ["check", "--inequality", name, "--count", "5"]
       for name in ("eep_fp", "eep_fd", "zugmeyer", "sobolev")},
}

GOLDEN = {
    "check_eep_fd": {
        "<stdout>":
            "0efe45ae153a273b9a00265cbdd73af555a456cca4ec0bd6b9e6fff302199b2f",
        "manifest.json":
            "f800fb7f3b76b9d69ba581a0d34b9eb8e64349c20437565610e7abe32942b4bf",
        "report.csv":
            "034a171105f72a281fe21f61816500554af67e69acf788319ca051917c1068ee",
        "summary.json":
            "7798f2f65361f3788e7c5c78116e239c5a5919b3ed7037465c902c7fe7123152",
    },
    "check_eep_fp": {
        "<stdout>":
            "116adff90aad0c64bc665497db8447802c48d60256e8ea2e63b2311e134d628f",
        "manifest.json":
            "5626d3ba9dbcd0049bb899b90ca26e506536c6b5915a33190a9a9c17563b6a6e",
        "report.csv":
            "10aea957d668c0bf09522fc6a86ff2650e13560d3fbd798e6f543d6eeb3e76c4",
        "summary.json":
            "674437c231472b6538a6d294ca26d930235643c5695d83f8eb5733961cb7b0fd",
    },
    "check_lsi": {
        "<stdout>":
            "083e204d690a3fc25bedc6ad0e43c1bb6cbd38822f359493364a6765a06283ef",
        "manifest.json":
            "5483ce24ac00d5a2d296ccac1691c1a007990ac78f08eeeeade536a51d42490b",
        "report.csv":
            "0b43bacf4fac367397de1000ed712808ad9c56c0215f24401ac2badd2ca61416",
        "summary.json":
            "c108286e81abce09c24f80a9fa366672fa7f5b5deb05ee38e7eadbc16127c696",
    },
    "check_sobolev": {
        "<stdout>":
            "f60ad9c3bd9f6673415ac031083566678aee66dfbacbf5d96ba49f6dd1e8d7ee",
        "manifest.json":
            "097f85bec528c6b22f8c99cd2fb29e03fa1d8b4ff5b32bd2e7e979227a29da7e",
        "report.csv":
            "902f1bf0a3f47554693e328d6350fa543e0b87240f8768f12e0c24bf2ce440f8",
        "summary.json":
            "685ddc208408114b910a3e09fbd08bb73293e968b6698977e63635a0d6f53c62",
    },
    "check_zugmeyer": {
        "<stdout>":
            "6b3366813b1e7e853d6b71cd2293b735084459a66b3daf78fc2f05cc4b070a51",
        "manifest.json":
            "ca605743084994f38ead0ccf3e502067d10bfda122537b10f2dd82ff29096844",
        "report.csv":
            "55fe361882780bd6b7d063e8d8f33d740abce7388ea502b17c7e6738498ede69",
        "summary.json":
            "d033e671b0bcce49e699ae3ced8153305d2ec807e138c89defbadb758c53c752",
    },
    "diagnose": {
        "<stdout>":
            "799cb254b595a4145884b5819eea8eaec45cc1af9e77a5504b07c8b33e397a6b",
        "finite_checks.csv":
            "cdeb93d231d04809eb54ab48f2964a10cde167d6476ddb9d7838e58dfbf56eb2",
        "manifest.json":
            "b6f255c2b8ab18c83854309e25d6b7dc4d4e5f8e33b9b6b4f7c7bf8c8d6dc97d",
        "trajectory_anisotropic_quadratic.csv":
            "bfac5d5984ce927272839faf33d3c6d8218abca0090955882496381a4245d249",
        "trajectory_quadratic.csv":
            "c015b0a3f504c7bed7ca127c29286f9702e89c3b647f65b3f9b1fb8b91b3025f",
        "trajectory_quartic.csv":
            "946b60b7b27745f93a68b3a9f3acd2123794ce48f7c038eca9f6d9ef60ef86e1",
    },
    "fast_diffusion": {
        "<stdout>":
            "f6d9f1d70d8adefe86e8a060260e257e9e30d6ed32d374b4888afc55eb23b589",
        "manifest.json":
            "0ee4c3b7c5bf4d36fbf6c0d0841f2ab34cf353b7e2e5b7ea031da5bcfa09ab5e",
        "report.csv":
            "18881387346276db28e53cd7317eeacac0ef3c6da97eb6cf8b70664527b68ec3",
        "snapshot_0000.csv":
            "4c0f028e7a55e5c3da4840579462cee32b71d372e89f46a52f1a90462f55cedc",
        "snapshot_0001.csv":
            "d9e8bf34d1f25681bce15d57425dd7b0837b16f48f9c6cf4f7fba9dd51a1c4d6",
        "snapshot_0002.csv":
            "86b985ee129de88ad0dbded705dcf0ce2d309dc44f44a8373b541f2b2b349a4f",
        "snapshot_0003.csv":
            "3583cfd5ef0363c84c3c6025e9b53be3e7b26509f289fc04739ac305a904bd62",
        "snapshot_0004.csv":
            "9d3fb50f0b194fce2aa0ace7d3e878fef5f839ff347d63e2493a227150e6f939",
        "summary.json":
            "988f2cb0418046e8623b976c9ea7e6695358e747ba9c00fb216399deea0be9d0",
    },
    "fast_diffusion_dim5": {
        "<stdout>":
            "68d3ea2ba98e5479c379c3d71f1270e2a51d849d800c19197f19c894f1c1d9f5",
        "manifest.json":
            "8125aca4acee0dc4ef78c9a7d32ee145fc3acd68fe75bc1f61f3651bfb58a939",
        "report.csv":
            "ff13ed03580085a946502c988af1d25034e19675f37a605488caac32d884e5ba",
        "snapshot_0000.csv":
            "41d174ca19ece5cb58974089602d8b67a6c8199740b4b07fa718bdf267025830",
        "snapshot_0001.csv":
            "d7670fedff3ebc9cc82438db727f231702305d45b746d9cc43f92023b66b8ae9",
        "snapshot_0002.csv":
            "3bfdd1a0a49d3b6a51004312c5cfe51875040648ee1eb4c58cc94e9234483331",
        "snapshot_0003.csv":
            "8ee704586ce53d3d98a79be03155358ad0f63974c4db02beb5df2a08556e7caf",
        "snapshot_0004.csv":
            "021b3126f672d8a090cb3bb59b5cbe8e662814e31bb7e25abd11a1ef783a208b",
        "summary.json":
            "adc6437af33577e975b22c86bf763f9a52b283e16ebc77fabce0a2394fbff0e6",
    },
    "fast_diffusion_n4096": {
        "<stdout>":
            "4b6544b4166091a5a73f65f15f16f73e32490bcee77cfcb4e4f03cdf96acd813",
        "manifest.json":
            "f4993cbbdbadc69695cde44320c1b2488a60f85395e114ddb0fb09b2e046c617",
        "report.csv":
            "8ef3ce73d55e5d4efc1e111d7d730ebd93a93fcd9a2efe4efef97b83826c7995",
        "snapshot_0000.csv":
            "9c18707d04f31583a1f0a2358c12fdbd58193ee1073d2051b2fcee760a301f96",
        "snapshot_0001.csv":
            "8aebf42026a893cc3c08b78632326439dda5f556f613ecdeadd9efe6d3ffa5eb",
        "snapshot_0002.csv":
            "add51b4cb8744dc380bdff7381d76ac14d3cacf1b5c3b04135a2ca85d380ac73",
        "summary.json":
            "0deb0015ad32f8eabae7bec7d988c3dc29d5116235102ba5e1acfe1feb93c84e",
    },
    "fokker_planck": {
        "<stdout>":
            "f23554bf2c01321047c3c48bf749ba9a4b6c797db46aeae8684a9baac390287e",
        "manifest.json":
            "e0069317d76c6aa91fc4ac914e491545e1c1c276401ca3d205602a0c5360f59f",
        "report.csv":
            "30bae177067fbc620d365d42c8e5e1dd16bdc4f9cdef792372743fb1cf63a429",
        "snapshot_0000.csv":
            "9ac546c98e3d114a64d9134a80a23e7fd5be465a72bbe54280def85cd2d02ef3",
        "snapshot_0001.csv":
            "d89b52c0b19f5f34348bd351e245f7109659d8ee2c9d87fc902952591ce207b4",
        "snapshot_0002.csv":
            "33c9e89646c45a4b81c9885a71538a4a94e6c21d16f096b3f158e5118bfe841e",
        "snapshot_0003.csv":
            "b68080ccf55dd3ca79deae2eb743ac2683c35199dead6d9fb7b2a29f48f40ac1",
        "summary.json":
            "9c0b096f7b02d341cd8583cca5a8cfd10cad252bde4907da0c4317f352451ab1",
    },
    "heat": {
        "<stdout>":
            "14c380b8cc2655908386b9202988a003e69942e038b096fd4b5eb2166aaafeb6",
        "manifest.json":
            "b01ddbc59b9aef87a9c9c6c91783124429deda41238440957dcf46422f178829",
        "report.csv":
            "ef73be2f6e6513a2340da7dd591ade390ec157fe702948aeb1c2749def38f942",
        "snapshot_0000.csv":
            "acf2daf5e309fb7a3ee5a186ed86da6ea4e1ee6c68a20c56f50988996d41e81f",
        "snapshot_0001.csv":
            "ab1252880560e47d78787aed22d5902f8916a4519389013e366aa53e86b34f68",
        "snapshot_0002.csv":
            "5dd6eededf2909232f355386efdb10c48efa7f076bded1bb68c36fcf1caef8f2",
        "snapshot_0003.csv":
            "89c69c3e7c67e5e70c16ab754a469b226f25f8dfa20dc6da6471729e8748d108",
        "snapshot_0004.csv":
            "9dc51f25919d4134c0f1b220ab90ba41d2b9431908a5d68abaa8d64312594935",
        "summary.json":
            "7f1ac8958e84f708de79b1dbaffe1526b1ca704825ff643649b566c76e9d31ce",
    },
    "jko": {
        "<stdout>":
            "c13159f3f0c142878e82c45eb41f3ed7f2b23de59cecfc51917ae78ee7519e5f",
        "final_density.csv":
            "77b6e6bcdcc045653a763212ccb458b9d93429f1caeff6261d4aa5759045c27f",
        "jko_steps.csv":
            "cdb638fc1c6037d65a2daef58ab37c5d83697b8e7e434b0fcdf14b6551640a77",
        "manifest.json":
            "b3279cdf97dda88e2573a2bdbbc3fa785af5b24166a3f93b2c57595b16341724",
        "summary.json":
            "6ceb5ccac8765a94a786fc14ceb3b80e5fc878e73a75027ff7cb394e01c5e4d7",
    },
    "jko_entropy": {
        "<stdout>":
            "0b85461e57951777d1ab47799cfb716eecb1db00a59f755337f0b04584fcbdb2",
        "final_density.csv":
            "46b1f729799a810037c81b9605bd72c795923d4a6b7441b01b460e6bb29e702e",
        "jko_steps.csv":
            "c91c85e12f4b820ea85c94a6b6e81283a3936bec47866b14d874bc56ffe1b933",
        "manifest.json":
            "2b82d4982731508b7670b1e3557a6ffda42d436c49ff8b549e7f59eb377a506b",
        "summary.json":
            "484c7487c027892bacb2c195c128b2f5052a8d0bbf89603794f44d42ce3f6cc2",
    },
    "jko_entropy_m65536": {
        "<stdout>":
            "d074eab18e845e4aaadd9f7cc7e30b808ba84500c410e64cbb22ad3a5ec17f24",
        "final_density.csv":
            "6af36161d903d976e0564601861addd6cd5651992df2e9e76051c2ba892ecefa",
        "jko_steps.csv":
            "060bfc71c4d42f6bc6c7f620506d39f7dcfa09ca3daf8c90e5d3f0b0a1afc873",
        "manifest.json":
            "0e07ecf6ac5e0d5c31082b99a785f1384aed6cfe9890a5d9499c7e5f3ba86620",
        "summary.json":
            "7ee3c35df96fc10cb2d10ed233a8b5041a4aca302a25219f4897beb721c9d3fd",
    },
    "w2": {
        "<stdout>":
            "359397c2b5bcaef728b4a58396e1fd05e47f034d700bea09e9f37a5bbaf38d23",
        "manifest.json":
            "e24dc6034982cdbd3c1512772270a666c7542fbf9b3018291005d1cae6658ec1",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ENTROFLOW_OUT", raising=False)
    code = main(RUNS[name] + ["--out", str(tmp_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    digests = {path.name: _digest(path.read_bytes())
               for path in sorted(tmp_path.iterdir())}
    digests["<stdout>"] = _digest(stdout.encode())
    assert digests == GOLDEN[name]
