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
            "8044acfcf6aa446df302fbf0b0cae76343f821fbec7696034bf40464dbec8998",
        "report.csv":
            "034a171105f72a281fe21f61816500554af67e69acf788319ca051917c1068ee",
        "summary.json":
            "7798f2f65361f3788e7c5c78116e239c5a5919b3ed7037465c902c7fe7123152",
    },
    "check_eep_fp": {
        "<stdout>":
            "116adff90aad0c64bc665497db8447802c48d60256e8ea2e63b2311e134d628f",
        "manifest.json":
            "9968e8796298330cbea0ac1491f8a4d5c21a1e48b7905512847975de95a713d3",
        "report.csv":
            "10aea957d668c0bf09522fc6a86ff2650e13560d3fbd798e6f543d6eeb3e76c4",
        "summary.json":
            "674437c231472b6538a6d294ca26d930235643c5695d83f8eb5733961cb7b0fd",
    },
    "check_lsi": {
        "<stdout>":
            "083e204d690a3fc25bedc6ad0e43c1bb6cbd38822f359493364a6765a06283ef",
        "manifest.json":
            "5a6463c028ee5da80b67c5650edd9cb0f8a04e4df010728199355a070e0adeed",
        "report.csv":
            "0b43bacf4fac367397de1000ed712808ad9c56c0215f24401ac2badd2ca61416",
        "summary.json":
            "c108286e81abce09c24f80a9fa366672fa7f5b5deb05ee38e7eadbc16127c696",
    },
    "check_sobolev": {
        "<stdout>":
            "f60ad9c3bd9f6673415ac031083566678aee66dfbacbf5d96ba49f6dd1e8d7ee",
        "manifest.json":
            "cc5f76af46b9596bd839d5ca44b75035a0e5947d67102f82c73f799c8cf181c1",
        "report.csv":
            "f6a18f39e04b9316694ab5d69713c14baa56fd186dffcede58c0022819665ee8",
        "summary.json":
            "a0da0833a282c03810063a31857b378dab9fa1eb37d27e977f86ed6dd918f72c",
    },
    "check_zugmeyer": {
        "<stdout>":
            "6b3366813b1e7e853d6b71cd2293b735084459a66b3daf78fc2f05cc4b070a51",
        "manifest.json":
            "b85149fd78eb8b202a395b9ec9d7772591e5082402868c8806620ca21884b63e",
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
        "summary.json":
            "c63a64b82c5dcb57f225db4982a47837419aee7df21c108fc46727e38a455892",
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
            "0c02c7d333504802ec10625a67d8648426aad1facaf1f98c28a2a17fd4168368",
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
            "c539783f7ad2a631eb044b67598cc5d076eccc713d53c0c6835cf0bc04bcf3c3",
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
            "804aa6302132e1903b240b1793070034a7197ebf0bcf0ecfa3550c10972a7f03",
        "manifest.json":
            "aa39ca88e3a121f76b6f82a3128b01cfea8bee46700a89d0020443b74d529e0e",
        "report.csv":
            "786d4084af12cd3f76c430fe4359941ab0592439e666903326e43f8bd2f31d81",
        "snapshot_0000.csv":
            "9c18707d04f31583a1f0a2358c12fdbd58193ee1073d2051b2fcee760a301f96",
        "snapshot_0001.csv":
            "f8beaa9d0cfb73ac205a33870ff152f3defa1002d5f9a94b74da092a9e8f0d52",
        "snapshot_0002.csv":
            "9e5aa2c34bd884fb831b36f003d5b681c5bfef87b56c88b7f096454a63ee73c3",
        "summary.json":
            "659a68cdbd769100b2d824360ba9b21c6c4d943e11d1398320d6ce6edc479820",
    },
    "fokker_planck": {
        "<stdout>":
            "2201d51fef8c99f2c402296138c0ec86b54f98ecf2e14f25052ce7557c27f2aa",
        "manifest.json":
            "8a12f358976491e92ca015ef2c0fc3f7455ad447911bf1a98db085196c488e1a",
        "report.csv":
            "8a6782950d6f2e70d6506cb262704e9292de6ed16a88ca3d902b6a4a846cc601",
        "snapshot_0000.csv":
            "9ac546c98e3d114a64d9134a80a23e7fd5be465a72bbe54280def85cd2d02ef3",
        "snapshot_0001.csv":
            "d04b0ee813b5534f3b91a3a23e40b44474d9a709e9404340b37df36c80b10e60",
        "snapshot_0002.csv":
            "245b945ae603786c93ca03aced8aafbbe2489403584877e0dcb8e74a80454e47",
        "snapshot_0003.csv":
            "f27cfd05b455ca4d6ed41f5dddceb2d8fabf73ae94313c07677151230e3804a3",
        "summary.json":
            "c3433569ea0b0e2632868b5d4b6ee13d3012094ee6e2dd623c7d0be707445d60",
    },
    "heat": {
        "<stdout>":
            "14c380b8cc2655908386b9202988a003e69942e038b096fd4b5eb2166aaafeb6",
        "manifest.json":
            "b0ece8cd05154c48966c35ddc673f7159d50a825eaec1e163cab76106963778d",
        "report.csv":
            "c1bab9c12c64330f69c3915e4f434e5328574b594a5f7a8d5344caa521740153",
        "snapshot_0000.csv":
            "acf2daf5e309fb7a3ee5a186ed86da6ea4e1ee6c68a20c56f50988996d41e81f",
        "snapshot_0001.csv":
            "7e8f781d2b4f3031c17b2c7c61b495b12b17b43c0fc63c469ee636a53f7da796",
        "snapshot_0002.csv":
            "c07bd185a625ca0212910d162701d2ddb65841a4ccf20cec39c0cb3ae9216a78",
        "snapshot_0003.csv":
            "c265d979dfd40b9fbe54a04d88c85dfc87a0dddcfac5b1733bb40807d5e5e91c",
        "snapshot_0004.csv":
            "181593a25f0c9c6b5eb158eaaf54a8e03ee655a255dd21e7bc748e5246704800",
        "summary.json":
            "7f1ac8958e84f708de79b1dbaffe1526b1ca704825ff643649b566c76e9d31ce",
    },
    "jko": {
        "<stdout>":
            "d1b1bf90a3d8e74c9a3dca3f8c2ad16c8207a21caf6b815fcb91cfa841347d14",
        "final_density.csv":
            "6d37b1ca30b387d2a9e6e8ce84c8e9e664fc2b7a738cc21403c4e6dd107983a4",
        "jko_steps.csv":
            "5590eb0068798e972cc07dc6d30385bb8fc9d1a448501319515d086c04f19329",
        "manifest.json":
            "b3279cdf97dda88e2573a2bdbbc3fa785af5b24166a3f93b2c57595b16341724",
        "summary.json":
            "8e39e6cb89c7ff39ed13c0d918ad8e51675e6b20ba64d560da88410f9e3946b5",
    },
    "jko_entropy": {
        "<stdout>":
            "10768d1f297433208cd9977b8db0c6563fb62b1df4b84420adb1c6c16f727888",
        "final_density.csv":
            "e191fc483a81af40063b253a5887a5a52e8c7c2b5ef87b9c7b5f2bf0a0239507",
        "jko_steps.csv":
            "3b646502f17c5500b2f084826a170cc28ecbdfdf4b3f506ed278e7d34fcaf878",
        "manifest.json":
            "2b82d4982731508b7670b1e3557a6ffda42d436c49ff8b549e7f59eb377a506b",
        "summary.json":
            "a25bdee9a15e6409f0dbedc2742e09617e0432b0abb30ef59371da1eb89ac747",
    },
    "jko_entropy_m65536": {
        "<stdout>":
            "d074eab18e845e4aaadd9f7cc7e30b808ba84500c410e64cbb22ad3a5ec17f24",
        "final_density.csv":
            "e5339c6e623216524167cb3a71a3d2a9d1c6713d181f7f30fbc031b0b3db32fd",
        "jko_steps.csv":
            "5b33dee95ce68aa9a828a6ca33eff2837d35fd363d56cb431c740a5391a637d8",
        "manifest.json":
            "0e07ecf6ac5e0d5c31082b99a785f1384aed6cfe9890a5d9499c7e5f3ba86620",
        "summary.json":
            "3f8c9ac675c4c2b584b6e1cd0906c003e4bc59053091189604fe216f58c3b88d",
    },
    "w2": {
        "<stdout>":
            "359397c2b5bcaef728b4a58396e1fd05e47f034d700bea09e9f37a5bbaf38d23",
        "manifest.json":
            "e24dc6034982cdbd3c1512772270a666c7542fbf9b3018291005d1cae6658ec1",
        "summary.json":
            "e30ddc83450662e11a24e004135f52741ae6f40b29c7c0e8340de2185159405d",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
