"""Golden values and SHA-256 digests of solver trajectories.

The value golden (``golden_values.txt``) pins what a run computes, not how:
the LP count, each LP objective (rel 1e-9) and ``x_hat`` (abs 1e-9).  It
holds for any pivot path that reaches the same optima.

Each digest hashes the recovered ``x_hat`` bytes, then for every LP of the
reweighting run its pivot count, objective and eps, and the optimal basis
``weighted_l1_lp`` returned.  They pin the whole path of the simplex: every
entering and leaving choice shows in the pivot counts and bases, every
rounding step in the objectives and ``x_hat``.  Two extra cases leave the
crash-basis path: one with a repeated column that the crash ranking puts in
the crash basis, so the basis is singular and the first LP runs phase I, and
one with a repeated row, so ``A A^T`` is singular, the crash basis falls back
to the leading columns and phase I deletes a row; every LP of that case
falls back to phase I.

The digests of the ``CASES`` were re-pinned once, when the crash basis began
ranking columns by a reweighted least-squares estimate: the pivot path moves
with the starting basis, and the value golden passed unchanged.  They are not
to be regenerated to fit a new implementation otherwise.
"""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

import rwl1.solver
from rwl1.instances import DistributionSpec, make_instance
from rwl1.merit import WeightScheme
from rwl1.solver import SolverConfig, reweighted_l1

DISTS = ("normal", "poisson", "exponential", "f", "gamma", "uniform")
KINDS = ("l1", "cwb", "zl", "w1", "w2")
M, N = 50, 200


def trajectory_digest(a: np.ndarray, b: np.ndarray, kind: str) -> str:
    bases = []
    real = rwl1.solver.weighted_l1_lp

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        bases.append(out[3])
        return out

    rwl1.solver.weighted_l1_lp = recording
    try:
        result = reweighted_l1(a, b, WeightScheme(kind), SolverConfig())
    finally:
        rwl1.solver.weighted_l1_lp = real
    h = hashlib.sha256(result.x_hat.tobytes())
    assert len(bases) == len(result.history)
    for rec, basis in zip(result.history, bases):
        h.update(struct.pack("<qdd", rec.lp_pivots, rec.lp_objective, rec.eps))
        h.update(np.asarray(basis, dtype=np.int64).tobytes())
    return h.hexdigest()


def special_instance(case: str):
    """A normal 50x200 instance (k 8, seed 0) with a repeated leading column
    (``crash``: the crash basis is singular) or a repeated row (``rowdrop``)."""
    inst = make_instance(DistributionSpec.default("normal"), M, N, 8, 0)
    a = inst.a.copy()
    if case == "crash":
        a[:, 1] = a[:, 0]
    else:
        a[1] = a[0]
    return a, a @ inst.x_true


def case_system(case: str, k: int, seed: int):
    if case in ("crash", "rowdrop"):
        return special_instance(case)
    inst = make_instance(DistributionSpec.default(case), M, N, k, seed)
    return inst.a, inst.b


def load_value_golden() -> dict:
    """(case, k, seed, scheme) -> (support bitmask, LP objectives) from
    golden_values.txt."""
    golden = {}
    for line in (Path(__file__).parent / "golden_values.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        case, k, seed, kind, mask, *objectives = line.split()
        golden[(case, int(k), int(seed), kind)] = (int(mask, 16),
                                                   [float(v) for v in objectives])
    return golden


VALUE_GOLDEN = load_value_golden()


# (distribution, k, seed, scheme) -> digest; special cases use ("crash" |
# "rowdrop", 8, 0, scheme)
GOLDEN = {
    ('normal', 4, 0, 'l1'): "f37a3c9fdec772524fec2f153e8c0e2788b32ed84b633f0e14071545cc581eba",
    ('normal', 4, 0, 'cwb'): "3966b26003a0eff53970807908dd81327a973325be7133f47655eeee2a5e3653",
    ('normal', 4, 0, 'zl'): "e444ba17fce33ec4150805843b945cb8afcab0e8140ae9dbcef62e080c20ece1",
    ('normal', 4, 0, 'w1'): "312aa6db487c92cfe2ed4b813f00e89e356239c0bebf55521e4c5955a5f78df3",
    ('normal', 4, 0, 'w2'): "1a8773527e8a8e92953cd687c89eeac5a6b404fa3b54d18e5fe37f8a944531f6",
    ('normal', 4, 42, 'l1'): "ee9e358982d62d48a5c109032ae8b1aba9ed7a1284d812746303bd50dd019ec5",
    ('normal', 4, 42, 'cwb'): "3ea1fe23e736281c1d6cb58f0a39cb076fb91d9cf376e46988e3a64f0961587c",
    ('normal', 4, 42, 'zl'): "0a48d4c22c0f9701d1403fc6c2f9b5fc46e77896bb9ad12db614f2a82f608852",
    ('normal', 4, 42, 'w1'): "26015fe0830222777fd9d8a7965fd7945f80d13a92d5c414ff17a44c3e5bdcbf",
    ('normal', 4, 42, 'w2'): "80373727df0e4229a4e0d76ea3ad95ec5a1fb28dbd929f36d08c609fdbcbe419",
    ('normal', 16, 0, 'l1'): "7cd6e8c22fd09d3e819251fc07accc87e4b39ba5de6c124edc8cc9125b066664",
    ('normal', 16, 0, 'cwb'): "c393abf0088dd401648fcea61da53e60acc3baa45df6fc353d763b916952266c",
    ('normal', 16, 0, 'zl'): "e89561a39a7356c07876eaea564c678bbd4a1e76dcf566263d5a70a4903c5a77",
    ('normal', 16, 0, 'w1'): "8dc06384f6114e47f19f594ba8ccb9bdda8ca3ea07b418cb718de2f0b383203d",
    ('normal', 16, 0, 'w2'): "599c612b28cc2b09981894ea850863409c998a0a091ec7b2164f1e0596474aae",
    ('normal', 16, 42, 'l1'): "a95f9a083e607ef69a347a85bee29b08d4e1bcdab69213a8576c0edc92277a63",
    ('normal', 16, 42, 'cwb'): "414856152d2e539f6872801e2ddc2b02e96c41b865b48f7640299ab64f61e2fe",
    ('normal', 16, 42, 'zl'): "733c5b2e853e0a7549317cf40eaeba1f6a2ca17f6a66f762e80ff73caca1a6f7",
    ('normal', 16, 42, 'w1'): "7b0895a6cfed67fbda863546db65322aef13f22fe8796092155b6e2f490d965e",
    ('normal', 16, 42, 'w2'): "6a39da9739ed3bf5e4e19dec187e752f1891371137b4b801a8fbb6ce31170a93",
    ('normal', 24, 0, 'l1'): "6baece11b8217dd9e872205dff7a6e1b169b38aaa5c0eaa7588b1e028b2e3fa1",
    ('normal', 24, 0, 'cwb'): "eda8c30fb8d6fdeea5d539b3cc3ea68741f3c71655c53e81f5941ebc7baf5708",
    ('normal', 24, 0, 'zl'): "4c06a6874560c2a1cd7df2fdceb0528daebc0c43e50e37b470e34280c79ce24f",
    ('normal', 24, 0, 'w1'): "6bc7aa9a10d3472454d9b9cc97980e2c04b4e8a24f9c11dba4593b0d345d77fb",
    ('normal', 24, 0, 'w2'): "f287484b014b9d37b7c606a4c1d9d96cd55c72f4349bca9aac84cb883398c47d",
    ('normal', 24, 42, 'l1'): "ba6614e47f03d654864668014bac381952b4b5bdd9e13b63fb0dc9257ea8c73f",
    ('normal', 24, 42, 'cwb'): "daa69332a6f2b82ac2af1dce5c9b076ed51288b68bba3b5955c65800105cce60",
    ('normal', 24, 42, 'zl'): "79bf75ebcf92aa1fb62cc2339626a9fe560fd69310e83951dfe728e91cd533d4",
    ('normal', 24, 42, 'w1'): "c9434338688f86a964b7275889ca90c862244f46df5bdfe6c12c9107186041e1",
    ('normal', 24, 42, 'w2'): "ccdc61042c3d58d67c62593c47ae8cd761ce9697ddfeb517e71c65a29cc6d911",
    ('poisson', 4, 0, 'l1'): "e79b6143fde640989d3293308e91a3d518fc21642ff463892b8f2d099d52d2ed",
    ('poisson', 4, 0, 'cwb'): "81d711ae9290646b1a9a5d4b78c1cae59f0e00f6ccdcf73ed5e309cb4173aa72",
    ('poisson', 4, 0, 'zl'): "3e2a3c268ca1640a05f0ced15f724bf94368db80b4a445ac6a6ece1e28ce7188",
    ('poisson', 4, 0, 'w1'): "863111eb377d54ffc0a4680536332694298da1b156d4a146691c06ae4817272d",
    ('poisson', 4, 0, 'w2'): "2e525d5db25c1fe358bdd95c071d763549dc3e502aacf0e842e5c403a1831003",
    ('poisson', 4, 42, 'l1'): "288c904e45998d1addb4b6a1fc3857868ab03a13ad3f47aa0e5e5627e2c8bd5c",
    ('poisson', 4, 42, 'cwb'): "4e65f2cf68829730b538dc3b3cd7aa060cd233493e9c529cbf1b08b25fde6c2b",
    ('poisson', 4, 42, 'zl'): "c1e37b4223b02b1c7bd433e9763622516ffe1657f97ed14e357a2cf025a7f1e8",
    ('poisson', 4, 42, 'w1'): "c3f84f0527ebd06512b3121b5accd8ae556de093394fcc23de685c428db4862a",
    ('poisson', 4, 42, 'w2'): "140c165c980db4f3c133ae14ba7439d370d27f86430eb3ab51b84e83bf413ff0",
    ('poisson', 16, 0, 'l1'): "ac5345e05358c8feb4040483d07b3adf43b1ff6f73841e0c96919ae8a0d1b5ef",
    ('poisson', 16, 0, 'cwb'): "d0cbdfe64eec3ad2e68e0b02239a47c3bc0861c204e1d8d165bf889e95508e2c",
    ('poisson', 16, 0, 'zl'): "6d23ecceec2838dabdcea2e3c36f9d8b08d6b5dc7f47bcd5f3809ce3bb6f6408",
    ('poisson', 16, 0, 'w1'): "7b6ca11c67851021077d2033998cac16fd86d4326dc09229e0288dd64b938717",
    ('poisson', 16, 0, 'w2'): "08e49b05b015363d341fec5fada02ce5b100d02fc31035f0b01d28636fe84f39",
    ('poisson', 16, 42, 'l1'): "02a64b5017e0c22b4193978c762d1d3beddab8abdad4a635bfcacb24ab8b7227",
    ('poisson', 16, 42, 'cwb'): "a3652037f105061de0253135f1ef90ec503f709701a9afc1e7fcb81b30a22c24",
    ('poisson', 16, 42, 'zl'): "569cfd527e8efdd55858a997fff9c18d074ce4d545e23756904236982f37ebda",
    ('poisson', 16, 42, 'w1'): "2aab8b9460531fda2719eba99d09759a7688c8a818cef021e7fb7ae221fcc372",
    ('poisson', 16, 42, 'w2'): "7db0fc24eb96ad05c5606322c1576384bafe3a61be2ccdea6014c4fe76e19368",
    ('poisson', 24, 0, 'l1'): "ca0beeb17593edccc87726b0aaec1886aaf11dc43c418650d5a45703c012d121",
    ('poisson', 24, 0, 'cwb'): "35f347e9d693b070cafa9f4d4317f7bcdaada1c2249fabc9bcf1b831ae936b92",
    ('poisson', 24, 0, 'zl'): "1e80ba51aa12f35adfa6fd8be45126cf010acdd6120d41bc9a37bd1e5f9a48b9",
    ('poisson', 24, 0, 'w1'): "4dafc2ba23f1dca9afd2bd492424eeea0c50f8d3636579f36bae8d2f79d8d6f6",
    ('poisson', 24, 0, 'w2'): "5ac90d738cdd79f704cebe39c4e4a27171bf5c5f95e0f4ffc01a781d9c7297b2",
    ('poisson', 24, 42, 'l1'): "66b073c75374cfde8d632f0091a57a2dc51c5fd74b7c99a7ac23ba30a676d0ae",
    ('poisson', 24, 42, 'cwb'): "526fc99971e2ea28de1c9bd3b33c6159245e286966af19bac129969100f882e9",
    ('poisson', 24, 42, 'zl'): "98d21d1c35fdc79cf2c12162636409fded78ba5cdcc8f6d6b0dbf5c577a08dc1",
    ('poisson', 24, 42, 'w1'): "388d329d00395fece555ed9631c6659db7a472bded6d6a7ee8d045bc3408342f",
    ('poisson', 24, 42, 'w2'): "9bbe6011b3912e8bea00691dfc8b3505ea0b82482c8e45837cb1af3472612341",
    ('exponential', 4, 0, 'l1'): "2023b4c6b6b0f0dfbd1751e4114fbad492f71bc963098ae811504081e5895844",
    ('exponential', 4, 0, 'cwb'): "a157bf54fbd2172cd831dd312ba0427de1db7d723fdd692085a5e03f6f8293b1",
    ('exponential', 4, 0, 'zl'): "31f1965ca492e1a350697f40746ff06a18feca578c324b3122c152fecc903be6",
    ('exponential', 4, 0, 'w1'): "c787b26a7d258fe98716439e76fa83644f6a1af6393b5b3c77207d7eb55a8594",
    ('exponential', 4, 0, 'w2'): "fc7e84b7f142f76f75d4c1194b2b93b13f1bcbf5b313575bfd31fed818a1bdf5",
    ('exponential', 4, 42, 'l1'): "09480c9c337aedf541f1badb2df1dcfd0f7f82b408ec2d39e32b2ef71c2e6f62",
    ('exponential', 4, 42, 'cwb'): "0dc3e9d665012be92beaf62f00bb535ab75432741f56db531740434805a1f334",
    ('exponential', 4, 42, 'zl'): "f3fb1f8983f5262d193e459c04f41c3fd85262a43a22f3ba27b44aa9a09f2098",
    ('exponential', 4, 42, 'w1'): "940f3a11b6a5ef36bf832b12721a2c262dae1469f59985ccb2b65ab66c4cfd7c",
    ('exponential', 4, 42, 'w2'): "e8cb347995468b36a66ee4af0aa89f23af545cf93ea7dbc21f1c0829dd0af932",
    ('exponential', 16, 0, 'l1'): "a0e779a352b03284960dd0067a8669afc19d0dd13392b6ac355e360ffffd7abd",
    ('exponential', 16, 0, 'cwb'): "02837ec095319178b61269f7cf90ff68767d72650a1652f0c1725cd5d03c63ee",
    ('exponential', 16, 0, 'zl'): "f0bfd49f5ca8dd5d11090628d2b44d9303db0b6d3b2dbcb10b17f72eca8ea9a2",
    ('exponential', 16, 0, 'w1'): "598a1edba36738e673b66bf58cfd1d3db4397723b3695e827f6f1ad906c724b8",
    ('exponential', 16, 0, 'w2'): "6e52664509e1accdcd12e1dfc7e87a4eebd4159e72c60e3595f47b460c1216e7",
    ('exponential', 16, 42, 'l1'): "7de086a8b5d14747c0c65ebb8c254a4d213bb99b1a533d65b7f6d3a6763f0e08",
    ('exponential', 16, 42, 'cwb'): "d5475bb328e5661ea3c4cd054eaa89a641e19f24f5951ea51dd7948561cc207e",
    ('exponential', 16, 42, 'zl'): "21dde4a1c1185323bf8cdb734272846ca9ee88ffad89356cef2a9a383d2267af",
    ('exponential', 16, 42, 'w1'): "258fdb49f1553db18b9d438d19d1dde1496997db47ade97c0ff4910458e0914c",
    ('exponential', 16, 42, 'w2'): "03dbe1e33ac29769d6d26563ecb717197d89e8416099c2d78694ccb28ada82ff",
    ('exponential', 24, 0, 'l1'): "a107a9b390e001361451155fd506e45c61c4eff52b5997105d530bb3056b5257",
    ('exponential', 24, 0, 'cwb'): "9716a1c25c79f6713c45794cde8a1ac4d050bbc208ca6ddff8b997906ddbb4b1",
    ('exponential', 24, 0, 'zl'): "82b22abf3ed00313b0964c03f3412452bd023fdefc93d753b95b77c408f71c7a",
    ('exponential', 24, 0, 'w1'): "4805f5d4057faa7d6e0f5310a67e2d041536454b077a5ed4f7f04d1f58b46865",
    ('exponential', 24, 0, 'w2'): "f6a31f48d4a5d14efdf9abb5a067c7952d169cc1473c77b431a9df52febc8108",
    ('exponential', 24, 42, 'l1'): "5138e642e67ab5cbb4b7f9d396f4396de4a7f0db01589c9b06b7eb85f27147ef",
    ('exponential', 24, 42, 'cwb'): "3d96b088bc940b177057214b9ae178f37bf4255fc381592d7332204fe4a0e4f4",
    ('exponential', 24, 42, 'zl'): "6d7cb0598dc5d7d87b14b479e995a0476c676701afd4acb5cd003473f5dd772d",
    ('exponential', 24, 42, 'w1'): "5dc2072f00150ea4d6cd351a88d4580f2525ac01b3346e74b0131ccb4665c2ab",
    ('exponential', 24, 42, 'w2'): "cdd788c6f97a95fb602fc695215a433a8a915b549bc8177564f3fdf60c6afed6",
    ('f', 4, 0, 'l1'): "2d56fa3cc511398b8becd3bfd18878d58afe4f5e72280cf8e591c36907a590cc",
    ('f', 4, 0, 'cwb'): "04ee329e00a3666f1615c62f1a4e33766e7657a5e33dd2f2c89efe98305ade1e",
    ('f', 4, 0, 'zl'): "327432fabd2abcd78c2cbbb4ca005e0e038870ce93d1aa927aa1311b64466bc8",
    ('f', 4, 0, 'w1'): "4015f642acf654306948b5070f3426dde83e470d2086138ee76fdde6f4ce02e4",
    ('f', 4, 0, 'w2'): "84bba29daa4acc45eb158f3733eb9e62c71d69817ae072e61adc9be4997fd91a",
    ('f', 4, 42, 'l1'): "be1e2d1cbb4afd72f9d5df7e54b841d4ab147e00922262cd584c545cb1ab57fa",
    ('f', 4, 42, 'cwb'): "14b1be6467a2333c57f37ecf913aeabffb588dd89a1b4cc4b37892939373f0c1",
    ('f', 4, 42, 'zl'): "985919ad52ecf9de4599459cf76f6562ced44fd243bc901d68e0f0f80c4e478d",
    ('f', 4, 42, 'w1'): "460e3e23e2d631570cfd76bd270530f97328b3f308a38b211089ea41e2579da5",
    ('f', 4, 42, 'w2'): "85b9b2e137f08022b4479816d80b2d17585e2ecdf4d3eb5e0b7578c5dc76ebeb",
    ('f', 16, 0, 'l1'): "976208b6522608cdd191fcf8ffb3e93dec57567227f98a533c35eea40192e3a7",
    ('f', 16, 0, 'cwb'): "2c319469e4596b07f3d67f39c38ca1da08de554863d7f155250e8390ec61e627",
    ('f', 16, 0, 'zl'): "09820f57f500d7b2189a941aa0bfbf7cd2436f7ddb77947fa092d3862d05693f",
    ('f', 16, 0, 'w1'): "dd5acb60af175ab1270791e93129cf35c88e62c1f500c188363f31dc603e7100",
    ('f', 16, 0, 'w2'): "d5eda67f2b832b33c0032714c53a7746c4e09a9fa272e3de6adb229861d74149",
    ('f', 16, 42, 'l1'): "aa743b6924b8542f695ca60b8c3ced9dc907f4f717606456de2ab8b0d432032f",
    ('f', 16, 42, 'cwb'): "65e54760454b3d47775e22be8a47fb38f09a08646a9a2ccd0cbe61e51d403ab9",
    ('f', 16, 42, 'zl'): "1bd14e01206684a7bf18bfeb91dc97ac96eb18485fcdb4d4d43c2bf0feaabff1",
    ('f', 16, 42, 'w1'): "e2c35c51c0d518bdeb3b7929d17f47a75b4afd8e9f41cedad340ddf1c6419a78",
    ('f', 16, 42, 'w2'): "ec894cffd4c5c38fb1b340d50f858386a063e751a12e93883b43a01733eac0e6",
    ('f', 24, 0, 'l1'): "cd8f36e815cba58f168210dc0da08a564941227a2acd491bb5d0d0f8d407240b",
    ('f', 24, 0, 'cwb'): "be9dcbf0c44c4e78ad04f7762e323c9ae7f324a444e5b83f54999a698df0db27",
    ('f', 24, 0, 'zl'): "22866d1ab6bd2fdc7fd45437426a84053c38de96418dccb0e883c7303d21e7bb",
    ('f', 24, 0, 'w1'): "a81e8031135c73d14d544787cae6d910ad58ae9bb6e56a9c25a7bd3b1eaa4db9",
    ('f', 24, 0, 'w2'): "f3fdfb01829cb5491d85acf6f1ad65a60c50cd2d40964941693a5ca30df9ffe4",
    ('f', 24, 42, 'l1'): "3b848aea1c8537ff5b0eb46224d1011c572fd1486324855eff2d22f10e5a2cd5",
    ('f', 24, 42, 'cwb'): "1ee8d3fc9946ac31c7683c88274f0fe8b7496be9b31d8b6c6f2b5dbaf3d0884d",
    ('f', 24, 42, 'zl'): "84dc9820a7c59d5bfa64dae9efb09dd2c47a70426f1acc85524f96ee686aedae",
    ('f', 24, 42, 'w1'): "1b30803d5b8ebfad0c7c5e0e2e368c94b456fb689e3d828d6143e264e24652c2",
    ('f', 24, 42, 'w2'): "f13457bbe112f492d53bce14a7b6540ea55b85325e7e2a2027342a221ac5bf94",
    ('gamma', 4, 0, 'l1'): "939d6e895e3879ea5423e27b0692454b4c12f44f5bbd8cea07e0cac7b8d934f9",
    ('gamma', 4, 0, 'cwb'): "dd4e4dd6aca7dc919be18bd4600531999dbaf69175ca1fa241aacc04b0e029be",
    ('gamma', 4, 0, 'zl'): "fa50fe1fa4e4250bfd902382cd0eb64dec6a814aa115771f1861fb0e801c3cb9",
    ('gamma', 4, 0, 'w1'): "787feb8583217e814fa39a1053aaf293b3aed4b2e8ed6f632d0ceb49c964300f",
    ('gamma', 4, 0, 'w2'): "4c5e27ddb40e50ee14ee19e8ff7819808cb00eef67ab8e3fda9137378c45a030",
    ('gamma', 4, 42, 'l1'): "2bf0371b42303ea757ffc093dd280d600dbb02971e9cc36a240b417808ecbdeb",
    ('gamma', 4, 42, 'cwb'): "e7dd44d843303872026b38daa836c955c0759294a12804cdb58eee7e19ffbbd0",
    ('gamma', 4, 42, 'zl'): "928845fed41d2bf191c1fcb377a0aeac901cdf7ab56b0858c7aa0ef4b7efeecd",
    ('gamma', 4, 42, 'w1'): "2dbef2a5de4272c887a5ca9918e25e81791a00cb365cf0cd08db85e4861a6a13",
    ('gamma', 4, 42, 'w2'): "895f6fcb2e4699d9f32fd435e2f02b20bfc7b9a51e63aa68a1878f7bf400567c",
    ('gamma', 16, 0, 'l1'): "728b76fd17de1fd23980039d23dc63bb5c95a2e636f9ba23adaca21fc00ecacf",
    ('gamma', 16, 0, 'cwb'): "5c4197a8b28668c04a9b24da0e4a8f2818eef4e6f98975bfd2e5715cc20af7ae",
    ('gamma', 16, 0, 'zl'): "99778e8f27743d5e92122eed7aadb7d85a95d80275f51d2fc246d0f60aa800ca",
    ('gamma', 16, 0, 'w1'): "7f54d8f28c179dfe2fb1bdd0825183686896c91679062376f3f084c5e436d98b",
    ('gamma', 16, 0, 'w2'): "3d86e394b69d3fac646595b18ef15421a58177ff2774d8761bd327d2fbbdaa1b",
    ('gamma', 16, 42, 'l1'): "59d8af15b15f30fd3d1cb7e6e8c3d733513122ac8870e5659740df1ec42e5220",
    ('gamma', 16, 42, 'cwb'): "1bed5f4a09cada4972cd73a345d77b252ccf64c5bb16ee4296a9d80a04a975bb",
    ('gamma', 16, 42, 'zl'): "73e2cc97a5ae1a0ca5c6fb481c1a6c96602ff642f8ed53c3fa2dc761f20b01e2",
    ('gamma', 16, 42, 'w1'): "63ae62f8883e421249f4c5363a35aba484db1468e970783790fde5df517e448f",
    ('gamma', 16, 42, 'w2'): "76927a08b6d638c40a45814cf32c9fa20c022cc37cf18ff3390fb116fd9e6ab7",
    ('gamma', 24, 0, 'l1'): "16367cc0ff5ee35aabe7215150d1891658a8f619b1632ebc3fce0684a0d09215",
    ('gamma', 24, 0, 'cwb'): "1a12e185163c9ea97eb693ad89c28c353bdb99bd6e91f8eb23441226db484c64",
    ('gamma', 24, 0, 'zl'): "b8599f9829616085250cb75a27916ea7483b7012be2e792486ff851446c37adf",
    ('gamma', 24, 0, 'w1'): "dc2d5a7191866ba8d4efbe73f78de3e239f98d1264ece9fe7301d330cf1d0910",
    ('gamma', 24, 0, 'w2'): "938e70c7a0855d90293157e85679349e67ced459e8e7b5f76821b6519b8be333",
    ('gamma', 24, 42, 'l1'): "9de024142fec08c350d32728fadbc34b76a2b3fd03935c4f18b2d46370ff3edd",
    ('gamma', 24, 42, 'cwb'): "a9ec7da8bdfeb26681c1e36c41628560ae49478c8181038dd974a4417966a5b7",
    ('gamma', 24, 42, 'zl'): "5a758151c2daa3c809f2d3f481c5c7c2b10ef7b768ddef4d98fed454b1ba35be",
    ('gamma', 24, 42, 'w1'): "68f9ed3de08d26305a64b61e956b060368a12eccf7e760315dc722886396718a",
    ('gamma', 24, 42, 'w2'): "6dc99e5c626304434b460534d43096b9e964ab41dadf74bb9338994e216a003e",
    ('uniform', 4, 0, 'l1'): "1b3e586dc68b613dfb3481d11d6b4b63e2758ae08f10dcc0cbabdaae3183b9a6",
    ('uniform', 4, 0, 'cwb'): "93a12deb7aadeba09f2e61840393708ee33ae5c95360dc40b58dbbeb5a839d37",
    ('uniform', 4, 0, 'zl'): "fc5398605ed6edcf5ad5e6818218eba2eda74f651dffcc002047d7e9d80256f5",
    ('uniform', 4, 0, 'w1'): "b2daa63fc20f18e4d0999ad39e5a7f4b1db4371b25f5c86eab87b1e9efd90777",
    ('uniform', 4, 0, 'w2'): "501aec4b85df8fd68d2f1aa05efbd74948364514c09f3ae4f4bfa1b9cde6de30",
    ('uniform', 4, 42, 'l1'): "ed90d1fbdd23f5c7c46f0f607bbb69aa65394ea5a0c31206b30103648fa7e91d",
    ('uniform', 4, 42, 'cwb'): "ce309677f965b3aaa8dd73ac96e93e766a7d307ebb5af0d6f05a9521edd67a0b",
    ('uniform', 4, 42, 'zl'): "56f6f98f3403a085e5cfb99f2d6266d27b4f13a3d23ccc873db1792641326adf",
    ('uniform', 4, 42, 'w1'): "e3f26cc915402249e9772567b82848639ba2482382c2b8ece92fad2cae40975b",
    ('uniform', 4, 42, 'w2'): "13326a98763c1e2fa6e3f8fbd16838d3b4a6ec88d464253930eae536558ffca0",
    ('uniform', 16, 0, 'l1'): "7c3ce267390a3bb0d3e9e45fea33e79e442d36f9dfd81ad9a1cad8d3815294cc",
    ('uniform', 16, 0, 'cwb'): "41186d98935c54815691f15ca34dac873d22029594aad52fc0465a05a1ed2846",
    ('uniform', 16, 0, 'zl'): "933768c1c6e3b8e248ac332e8be499d12c98d198bd1c1f4626ce2f460f270d70",
    ('uniform', 16, 0, 'w1'): "ffaf3953ff96da87f0814bdb652750bbed54f25176279d7303fc1cf75a32726e",
    ('uniform', 16, 0, 'w2'): "cb574e80ee5e1c2263b0390c4a3c948cf631090955a98bb74c0b3e8e32e3410f",
    ('uniform', 16, 42, 'l1'): "add8445b2242a254ef018c45ad2b38f5b7dd318b50aef59cdc47592373bde3b7",
    ('uniform', 16, 42, 'cwb'): "9e81425da49338d33211fd80d1ee9fdb1b03dafc75f2cc027146e0cb6045c42d",
    ('uniform', 16, 42, 'zl'): "0a6ca1f2e3b4dde4426a5dffda3a5ca344eb3a932d1aed44095df9865743e8b2",
    ('uniform', 16, 42, 'w1'): "f23eae50c58a10f7d554cd3a0da540202ff37036fed164f1735990b45f8787d0",
    ('uniform', 16, 42, 'w2'): "9d1878c47393a27229339a50096bdb5a6f90aa24b08bc8708b13d1b1548f9410",
    ('uniform', 24, 0, 'l1'): "087f20844debd0a93d1938b1fdaed9d345520460d138dfb807aac938c563046f",
    ('uniform', 24, 0, 'cwb'): "d127b7d08d7e3591f5ac9001f0d210213d305cd533def83e24fe76e2b4b0711d",
    ('uniform', 24, 0, 'zl'): "de11e2d7ed40f289addddd39a1ffbf7a8b98553e41e2b34534fcee4e84094c5a",
    ('uniform', 24, 0, 'w1'): "0e9361d9bb30a268382728e755641a31ffd6bc0428f985b7b3b0fc0798471291",
    ('uniform', 24, 0, 'w2'): "8318388a151d30798e7af5a6d695456beaf1a5c94170e04d56059854cbd8dc74",
    ('uniform', 24, 42, 'l1'): "0320207a44f31dc3ea62d67efbaf39943674089615e173c3fdac7c2d4b94e211",
    ('uniform', 24, 42, 'cwb'): "960bd4c78fe7f2b0f5280a74791299ab6f4da6715ac0d4f31760b0810ef25c2f",
    ('uniform', 24, 42, 'zl'): "4f9581b19e0a988aad8470bd7ddcf3e083c25a92d918650fb4c6cddada0dbe54",
    ('uniform', 24, 42, 'w1'): "0e144a7ab5c93a7cbd5087a41f43ea7afbfb4f869b383436ee4199c991f814c0",
    ('uniform', 24, 42, 'w2'): "4a33834026f927e7abda92284ec3bf72079c7acef666a8bfe1e609b82efc3c8a",
    ('crash', 8, 0, 'l1'): "497de5758240d9dfae3ea9d7e81848c0550cc9e01dc5887573ee2166da004be5",
    ('crash', 8, 0, 'cwb'): "caf4c987d6dcb12326334ceb82330159877c31398952c4b592a265cfcdf65d52",
    ('crash', 8, 0, 'zl'): "bff1f2fc007a16c8122e9438f98c84f8cbb8c101169f9601e5ddf2bf5e301e1f",
    ('crash', 8, 0, 'w1'): "c19bf6caffdc53597e852ea40d217d893b424745208a29e5ec91f5328888ca1d",
    ('crash', 8, 0, 'w2'): "03d7949e56e5dfb7923eae6338ba043b33e8c59b35e995b4a5e3cf08967b54a3",
    ('rowdrop', 8, 0, 'l1'): "34b2f10e2b06945516bb889d97eb5102a170c5f4551c235091af52cba751ab9a",
    ('rowdrop', 8, 0, 'cwb'): "4dfd3739e1992111c43d61a973a4e26fd76d4782060289b8bf5c84596a20340d",
    ('rowdrop', 8, 0, 'zl'): "ca3b368d6a0b16677923e29248de41d5dceae931007c357c79e6e35114b0dc0b",
    ('rowdrop', 8, 0, 'w1'): "55e202a2f65757d09a5792b65861fbd0349e99b9239e3749fa3fc063cceabc2a",
    ('rowdrop', 8, 0, 'w2'): "b3b98795ab29ca23eb9a98c72b51ab505b10d8adecfdd3fd2272d5a12580e600",
}

CASES = [(d, k, seed, kind) for d in DISTS for k in (4, 16, 24) for seed in (0, 42)
         for kind in KINDS]
SPECIAL = [(case, 8, 0, kind) for case in ("crash", "rowdrop") for kind in KINDS]


@pytest.mark.parametrize("dist, k, seed, kind", CASES,
                         ids=[f"{d}-k{k}-seed{s}-{kind}" for d, k, s, kind in CASES])
def test_trajectory_digest(dist, k, seed, kind):
    a, b = case_system(dist, k, seed)
    assert trajectory_digest(a, b, kind) == GOLDEN[(dist, k, seed, kind)]


@pytest.mark.parametrize("case, k, seed, kind", SPECIAL,
                         ids=[f"{c}-{kind}" for c, _, _, kind in SPECIAL])
def test_phase_one_trajectory_digest(case, k, seed, kind):
    a, b = special_instance(case)
    assert trajectory_digest(a, b, kind) == GOLDEN[(case, k, seed, kind)]


@pytest.mark.parametrize("case, k, seed, kind", CASES + SPECIAL,
                         ids=[f"{c}-k{k}-seed{s}-{kind}" for c, k, s, kind in CASES + SPECIAL])
def test_values(case, k, seed, kind):
    """The LP count, every LP objective and x_hat, whatever path the simplex
    takes to them."""
    a, b = case_system(case, k, seed)
    result = reweighted_l1(a, b, WeightScheme(kind), SolverConfig())
    mask, objectives = VALUE_GOLDEN[(case, k, seed, kind)]
    assert len(result.history) == len(objectives)
    for rec, objective in zip(result.history, objectives):
        assert rec.lp_objective == pytest.approx(objective, rel=1e-9, abs=0.0)
    support = [i for i in range(N) if mask >> i & 1]
    expected = np.zeros(N)
    expected[support] = np.linalg.lstsq(a[:, support], b, rcond=None)[0]
    np.testing.assert_allclose(result.x_hat, expected, rtol=0.0, atol=1e-9)
