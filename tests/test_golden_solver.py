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
to the leading columns and phase I deletes a row; the later LPs of that case
solve on the kept rows, warm-started.

The digests of the ``CASES`` were re-pinned when the crash basis began
ranking columns by a reweighted least-squares estimate (the pivot path moves
with the starting basis), and the moved digests of the ``CASES`` and the
special cases when the leaving-row rule changed to Harris's ratio test; the
value golden passed unchanged both times.  They are not to be regenerated
to fit a new implementation otherwise.
"""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

import rwl1.simplex
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
    ('normal', 4, 0, 'l1'): "0e4ba6dac891c5998904b9a92ec215ab12ba76cc2ac921e329667718f8dc6955",
    ('normal', 4, 0, 'cwb'): "126fc4ee62b76a5125bf81fc63bdae2140fc4267d5c1feec05c97060da23d36f",
    ('normal', 4, 0, 'zl'): "eb62f70e50309f9429da875f9e92bd1bc7461c10d288b3c4cd3ab7d4e7a85c09",
    ('normal', 4, 0, 'w1'): "271372695d48325508766ea6f076e4bf30a7ebb4e82a1189c778d854b3306f29",
    ('normal', 4, 0, 'w2'): "3db247908acab64f3e9c6935da67c1e6b4f77e249941c3c8def5a890c9bb7f9e",
    ('normal', 4, 42, 'l1'): "fe0fa24c3757e18eb99a1560a1eafdbb6ae1513b6755801721dca09301d630b2",
    ('normal', 4, 42, 'cwb'): "2540bf8df910784309f8db942c561e2fa5e391bb4f6c7c9977c25062862d7325",
    ('normal', 4, 42, 'zl'): "335ef60ce42c3ac7ba5a10d953e9cdd8704ffd8cfccdb90fa079c492df4c4491",
    ('normal', 4, 42, 'w1'): "da305e97348ab4c71ca7c81cc5ac63cd739041d90ae879415d49526cdc60a1be",
    ('normal', 4, 42, 'w2'): "27ffb7700f609afadfd20afcb3cf9364df81d1017b1382c36d3c7a45d8bcd824",
    ('normal', 16, 0, 'l1'): "d68ad9e1e3b53aee905d38efa64ec4f0ebd34e16d681d899fe84b0e41c92efaa",
    ('normal', 16, 0, 'cwb'): "93a4ef6025b81a16810f59b5336c713a73cee3aec53a88a4e4cb1385513d0de8",
    ('normal', 16, 0, 'zl'): "0cc51aa4c96ef268244b910eaa4c1fda1704d334533924f40caca5f54da4fd28",
    ('normal', 16, 0, 'w1'): "43ba035ec5748f8cf070ddaabfca594cfa1518f01f34fd156df610ae07de414c",
    ('normal', 16, 0, 'w2'): "eda90e295aa91ae539bc5535c0d26140ea8a2d704ebcc731f6e78f6b28afcdde",
    ('normal', 16, 42, 'l1'): "a95f9a083e607ef69a347a85bee29b08d4e1bcdab69213a8576c0edc92277a63",
    ('normal', 16, 42, 'cwb'): "414856152d2e539f6872801e2ddc2b02e96c41b865b48f7640299ab64f61e2fe",
    ('normal', 16, 42, 'zl'): "733c5b2e853e0a7549317cf40eaeba1f6a2ca17f6a66f762e80ff73caca1a6f7",
    ('normal', 16, 42, 'w1'): "e1690301e79a2d75d5ff4dda4e2215c4f0e1d2d3d283c6f759cdc1d78d6b8167",
    ('normal', 16, 42, 'w2'): "48f8d7c2684eb7a5d899eec9921cee2bed4302e155270440d359b8e527faced9",
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
    ('poisson', 4, 0, 'l1'): "ddc78d0faa14171bfb6c16c0525643ccb4d1c44991f7fd4db4cbb7137b965e22",
    ('poisson', 4, 0, 'cwb'): "bc62cb8be45242d577b044ca2ec2f06a720afa2ff7f079eafa5218fc4239658a",
    ('poisson', 4, 0, 'zl'): "c369992efda8633d304eeba357af1453e96ac60e7fa6572c1b3c6b3a8cd6aa1d",
    ('poisson', 4, 0, 'w1'): "787b64e43364ff00cfe5fdbf01edde2fa6a3b843133603ac391884d344ef198d",
    ('poisson', 4, 0, 'w2'): "4798b351db4cc2768b9dcc6af4eda9646906f43f4ac05ff16aad985ce0d51c57",
    ('poisson', 4, 42, 'l1'): "4d5a0bad2889cda2fae7e564ccbf37610f1dbb00513ee3413183821b278da9bd",
    ('poisson', 4, 42, 'cwb'): "45a27158160e711f767c94ffe4e1f03485e531fde1ba62b0d69a911a9b72cffe",
    ('poisson', 4, 42, 'zl'): "2a7a0951b8ae81995fa607b51593da14dd905cf92d94d3a3c17bebb0d07cbf8b",
    ('poisson', 4, 42, 'w1'): "cce9573ac2b5898f8ee4b7fe87dc283d6c2c94ce20ce549c2d8007a72f24e6a2",
    ('poisson', 4, 42, 'w2'): "41d18d854117c1365d46371ffbd5403d25a0fec0f7392d7a6ef0b5dd69aafa0d",
    ('poisson', 16, 0, 'l1'): "ac5345e05358c8feb4040483d07b3adf43b1ff6f73841e0c96919ae8a0d1b5ef",
    ('poisson', 16, 0, 'cwb'): "d0cbdfe64eec3ad2e68e0b02239a47c3bc0861c204e1d8d165bf889e95508e2c",
    ('poisson', 16, 0, 'zl'): "6d23ecceec2838dabdcea2e3c36f9d8b08d6b5dc7f47bcd5f3809ce3bb6f6408",
    ('poisson', 16, 0, 'w1'): "7b6ca11c67851021077d2033998cac16fd86d4326dc09229e0288dd64b938717",
    ('poisson', 16, 0, 'w2'): "08e49b05b015363d341fec5fada02ce5b100d02fc31035f0b01d28636fe84f39",
    ('poisson', 16, 42, 'l1'): "02a64b5017e0c22b4193978c762d1d3beddab8abdad4a635bfcacb24ab8b7227",
    ('poisson', 16, 42, 'cwb'): "4e88694b405ea6955b691b2b880c064b7b4ccd24e629d0b2e52a72be440665b0",
    ('poisson', 16, 42, 'zl'): "bf766d630b27cd3b651da85040e1df5538480128aaeea32ccb12118bb30a864b",
    ('poisson', 16, 42, 'w1'): "887b587de6f6bda7116fbba85e3338c699f1657b9e87bec205b08b815d095659",
    ('poisson', 16, 42, 'w2'): "013e146358a5a4bbeb9c833335777000686a55c514ff24ed543a07657cdedbd7",
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
    ('exponential', 4, 0, 'l1'): "51867259b62ee2a0acda8e63a803b8966fe00a32c8e4c13672a32cf0a50e49b8",
    ('exponential', 4, 0, 'cwb'): "f5bfdb56e8816166c6151e9775e37343e1c9d6fd04e5a27f3a0273041e3855c7",
    ('exponential', 4, 0, 'zl'): "4551f060546aacea2053a9667323d9dde0eacb69ad9ffd7e265bbaa45397e541",
    ('exponential', 4, 0, 'w1'): "da817eb48f67cfb8cd0b2c88ec6b4aa3a1108a624c5287022145a905d25c978f",
    ('exponential', 4, 0, 'w2'): "26081878ff7f4a64b59f7c221c9c1a5333e1c12cb25a3bb8ee31472c12955b1c",
    ('exponential', 4, 42, 'l1'): "f115142fa186a0512dacda07bb95dbe1568bd5c7c6d63edb45c73cb3c3dcfc44",
    ('exponential', 4, 42, 'cwb'): "11dd33de779025b0bd7001c8d7b4ef5b36868da07cf96541ee5adea0402a5ae9",
    ('exponential', 4, 42, 'zl'): "205fa96ea2b4d03371c1cd89563e2bab82f7bdcd6637bb0b84dde753cdf94805",
    ('exponential', 4, 42, 'w1'): "e134cfc55deab9abd7b0bc48bd8f3271b3848aea8b582adf87d522971a60d940",
    ('exponential', 4, 42, 'w2'): "d91532fc96bff911d36817e3c88b168c4ad9794e960060fc3db85cfcd8a7a443",
    ('exponential', 16, 0, 'l1'): "a0e779a352b03284960dd0067a8669afc19d0dd13392b6ac355e360ffffd7abd",
    ('exponential', 16, 0, 'cwb'): "46e3e9e771221ce0c3627eabbf43f640b534a598ac10e2be92dd186d21cf5d83",
    ('exponential', 16, 0, 'zl'): "3e53c6f2fe1e5b7ae819b8afbc03254ecb444c27a883014ff184c53908343491",
    ('exponential', 16, 0, 'w1'): "661704f996ff637503bfe923627c79c83353cd517b91eb2851a7f563d8095d7e",
    ('exponential', 16, 0, 'w2'): "5939d6696852c95d8cb193e384be30ed601f9df1fbff6eb300ca69e4eb8cfef5",
    ('exponential', 16, 42, 'l1'): "bc82a221b38c7eaa88762e96fc3528bb1045c2fa01d1048c4391832dd7c65ea7",
    ('exponential', 16, 42, 'cwb'): "0b038f1372f34edbbe58add7176c98c5f8d3b19315bcd03717b08b7ffa9c56aa",
    ('exponential', 16, 42, 'zl'): "971dd4de144297480387dfc1192cfc3d06bae7446ce71c42e73fcf9252022fec",
    ('exponential', 16, 42, 'w1'): "d9c62d2995297da09379dd906d31c67a3524e5c564c631716f534e540a54b90c",
    ('exponential', 16, 42, 'w2'): "e88396dc1917c6e491b259f60ae5de6b4ce4c1ca2da0e1d84bc1a3867a0b7cd0",
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
    ('f', 4, 0, 'l1'): "23706675a0bd9c8cde85a8c8cc9e4804e042802645dd1038568182b07e86a11e",
    ('f', 4, 0, 'cwb'): "f25cdba7447d83fcb2eb9220d8d040efc0ed1aa59dd552f65292b2a277e5ca53",
    ('f', 4, 0, 'zl'): "d18d37b6424e35d55861251fc157c42731389156f0af2bfc08f89988252d0cb9",
    ('f', 4, 0, 'w1'): "b96e5c43fe6d8f75d1f998cf0d7628e8ccb92ab096f3ec2026a119143b691ae0",
    ('f', 4, 0, 'w2'): "587b5e83e2ec3ee7eda9181d886ea2d2e4982ed44aecf393e139752f81797af3",
    ('f', 4, 42, 'l1'): "87bb8159c5259a24382533872af0e91fa4ffcfb47b5197d678f01b2e75ede411",
    ('f', 4, 42, 'cwb'): "066db4b4cbed79cc348bf67104a1489f3f8f134f69b8bba1c3422eeda65a6c53",
    ('f', 4, 42, 'zl'): "7bcc5a4f35bad9769f2027d9f8a05ad18fb8098efbd987acf39ed9843f349873",
    ('f', 4, 42, 'w1'): "80a48ae2ba564b8f131e8deca54a95d98e5f1babcb081a427c6641e71bc90273",
    ('f', 4, 42, 'w2'): "7586335be3676a0fa422739cc0d5f364bd6892f290131defa563cb44d77b3020",
    ('f', 16, 0, 'l1'): "976208b6522608cdd191fcf8ffb3e93dec57567227f98a533c35eea40192e3a7",
    ('f', 16, 0, 'cwb'): "2c319469e4596b07f3d67f39c38ca1da08de554863d7f155250e8390ec61e627",
    ('f', 16, 0, 'zl'): "09820f57f500d7b2189a941aa0bfbf7cd2436f7ddb77947fa092d3862d05693f",
    ('f', 16, 0, 'w1'): "dd5acb60af175ab1270791e93129cf35c88e62c1f500c188363f31dc603e7100",
    ('f', 16, 0, 'w2'): "d5eda67f2b832b33c0032714c53a7746c4e09a9fa272e3de6adb229861d74149",
    ('f', 16, 42, 'l1'): "aa743b6924b8542f695ca60b8c3ced9dc907f4f717606456de2ab8b0d432032f",
    ('f', 16, 42, 'cwb'): "65e54760454b3d47775e22be8a47fb38f09a08646a9a2ccd0cbe61e51d403ab9",
    ('f', 16, 42, 'zl'): "1bd14e01206684a7bf18bfeb91dc97ac96eb18485fcdb4d4d43c2bf0feaabff1",
    ('f', 16, 42, 'w1'): "e2c35c51c0d518bdeb3b7929d17f47a75b4afd8e9f41cedad340ddf1c6419a78",
    ('f', 16, 42, 'w2'): "646e44e58c67289cc9741813abeb368fc6c45426d62640bf5ba801a7f6f89be4",
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
    ('gamma', 4, 0, 'l1'): "90004269c3777fce38b9936f6a3badd993330491efc060783d13a10561464b20",
    ('gamma', 4, 0, 'cwb'): "82912a1ab6af0c891ec67198aa57fe51ab1e6333b913ddc1b150a23086277603",
    ('gamma', 4, 0, 'zl'): "25e063d002ea1851ad89b63d08ef9b9c9e2d8fb28a4d730fb465e7aed1df68df",
    ('gamma', 4, 0, 'w1'): "3306824bf125a465fd108ad87be12e2ba7e6165d5ad50a3ea2a91f9ff6486e16",
    ('gamma', 4, 0, 'w2'): "ef8ef8ea35fbcbe3b38918a14a8f0e2129608d65d53b32b40f30981869d65f85",
    ('gamma', 4, 42, 'l1'): "19f8ea578d68f88b470483752a9369895f49acd6c045d05354c0ddabf961f366",
    ('gamma', 4, 42, 'cwb'): "397e43fb44c8270e5804b5d0a1c4c4799261b681d2f30c80a33b5c37b2785a0a",
    ('gamma', 4, 42, 'zl'): "5cbab0dab702dc5fd435351bb9f72615527f85d79c7665fa9960eaea1a5e7c1d",
    ('gamma', 4, 42, 'w1'): "5135c44af9353c8d977389ec2066dd53896c243cb207e8feb49732137c6ec754",
    ('gamma', 4, 42, 'w2'): "89a15fbf7b4ff21a0ba0ef83da9bfe9357102fc5c8ec95838543576e310e13c0",
    ('gamma', 16, 0, 'l1'): "728b76fd17de1fd23980039d23dc63bb5c95a2e636f9ba23adaca21fc00ecacf",
    ('gamma', 16, 0, 'cwb'): "bce41fc75a189331ef73ec6be6dfc52bb0ab78d65ba6d014e0754f5c4f40b839",
    ('gamma', 16, 0, 'zl'): "70aa0ce4e9ef02366a264e5f547bb6a18b47c71f60593abe3035fda33b204c57",
    ('gamma', 16, 0, 'w1'): "5d83c42c6c701dbc43a22ccf91172513de45b4b43a19607de5897ddd53ea94e8",
    ('gamma', 16, 0, 'w2'): "66a20606b5ae2f0e353c5296a1cd4ca292483f2db412d0d1f36e1c17135af90b",
    ('gamma', 16, 42, 'l1'): "c72b8c4b9f2178699f5c84d5f8c56a9dc4f8dd74fa8db1a85d2cd8f312e71dd0",
    ('gamma', 16, 42, 'cwb'): "1b85920402ca61b614bd5aa571b8d6a9d0362476a531410cb3fba9c7d2a6f264",
    ('gamma', 16, 42, 'zl'): "72c0d078049a403e1086cca97a53a7a7ca1dbb293d94253022928f41347fe51f",
    ('gamma', 16, 42, 'w1'): "2858338e60d36b5d86d489bc0f9be5e313af6379cb6d31b1409a759004b75ca0",
    ('gamma', 16, 42, 'w2'): "f76c7ba1cee976c63f738458e2df5119768174dc461d43fe2c423646f1e8d125",
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
    ('uniform', 4, 0, 'l1'): "0037d5003fe4a2ce05d28dc0b155f212e85c10cf7f5f505a162594e444fbf524",
    ('uniform', 4, 0, 'cwb'): "81ff0548d6e78663a9986cdb25778af8be400b159b684c67b7e48467f722279c",
    ('uniform', 4, 0, 'zl'): "a620751d7a7aa591006848accf610bf1426d7258bb80e2b65fb3b3f54f6d81d8",
    ('uniform', 4, 0, 'w1'): "7e279e1af2460df589c35cff21f38242208e94c44cdc13b7aada525fc2ffba16",
    ('uniform', 4, 0, 'w2'): "073929f35acf98d43dffb427b440f582c74b1cce3ddeaf9593c650d4094accaa",
    ('uniform', 4, 42, 'l1'): "f693014f98f2dfd897e3c4d3f25073fbbc3f4e493606f76b56060aec156a2658",
    ('uniform', 4, 42, 'cwb'): "8e14c8df8633f53d7461ae74c6d7a7a7d134a8164cddfbaa8a9c5abf573ce64d",
    ('uniform', 4, 42, 'zl'): "df7de149b21f0d3d22c1720dd612d16af5d17f4cd4a33252ecb681d575fae9fa",
    ('uniform', 4, 42, 'w1'): "59b271fdcf8961a09776227c0fb640c35277ff60ed09b78bf66cf1ffd7be96f0",
    ('uniform', 4, 42, 'w2'): "60f370c3cda68f51f20291aa98af6979130166ad83c0dea66cbd4d3ed6e8de37",
    ('uniform', 16, 0, 'l1'): "7c3ce267390a3bb0d3e9e45fea33e79e442d36f9dfd81ad9a1cad8d3815294cc",
    ('uniform', 16, 0, 'cwb'): "b3215cae612fc270984cd10fb0bb7e9edc477c9efc30f610531338463a25e659",
    ('uniform', 16, 0, 'zl'): "b444ac7ec93bba682e5b9882a9db795ca3508f421a29c1c91ef61d63a1900928",
    ('uniform', 16, 0, 'w1'): "788fb0853732ba2f733a1c3882b9ea97fb0ba7012ccb2c608cff2d22b9ea5feb",
    ('uniform', 16, 0, 'w2'): "e37976b45c5258e4106cc9d8b5594a467aba5a5ef4258b74a498b156b484ec8e",
    ('uniform', 16, 42, 'l1'): "add8445b2242a254ef018c45ad2b38f5b7dd318b50aef59cdc47592373bde3b7",
    ('uniform', 16, 42, 'cwb'): "9e81425da49338d33211fd80d1ee9fdb1b03dafc75f2cc027146e0cb6045c42d",
    ('uniform', 16, 42, 'zl'): "0a6ca1f2e3b4dde4426a5dffda3a5ca344eb3a932d1aed44095df9865743e8b2",
    ('uniform', 16, 42, 'w1'): "221230e88fd059f0ab67c9e67572716612a407495fd73085aa26d09613a58add",
    ('uniform', 16, 42, 'w2'): "bbb8e020306e45a947116632c5ccace70198ee214a89d305c74df320763ad9ca",
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
    ('crash', 8, 0, 'l1'): "d2c36308436dfd2ef2789efbcca348f0da2319562fe1ecf52c154d21a1832177",
    ('crash', 8, 0, 'cwb'): "3f2bb6ee9afc1005800df5a7bf9312d45393d06b45e72df3ffb7df045c0bd646",
    ('crash', 8, 0, 'zl'): "b138b0cc35a68dc5badd853dc5bdcd221ea78f0c7698317ef90e6c5661731bed",
    ('crash', 8, 0, 'w1'): "97f77f7a4a1c126a0b5da04b69aa94820f78e45511cf2ad517ebe45b1a02e308",
    ('crash', 8, 0, 'w2'): "2b25d553dcf2ee9cc6fa5034e5f2c0e6c4755cb7b9f0595c619e5281461a79c1",
    ('rowdrop', 8, 0, 'l1'): "c8d72608e22c06d05f63287162b152af6e06bda46901fcaf6db3b606c14b0eaa",
    ('rowdrop', 8, 0, 'cwb'): "f4379960d48928086a2ea1441b80dc3605ab136ad7a8f2df1c881a41be996f72",
    ('rowdrop', 8, 0, 'zl'): "383eb60179a367b6cd0ca12e191b63872ef6752c5cecdcc7107d7c859fc72604",
    ('rowdrop', 8, 0, 'w1'): "aa869991da32d000d3046425d0b7ac868ffdb772b60aa06041aa0b39bd25446a",
    ('rowdrop', 8, 0, 'w2'): "0d30095faae3bd2d2f15eea31261dfca7a3607a53bf62c019877233d66777c46",
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


def test_stall_guard_idle(monkeypatch):
    """The longest run of degenerate pivots in these runs is far below the
    stall guard's 2 (m + n), so Harris's test makes every choice."""
    sols = []
    real = rwl1.simplex.solve_standard_form

    def recording(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(rwl1.simplex, "solve_standard_form", recording)
    for case, k, seed, kind in CASES + SPECIAL:
        reweighted_l1(*case_system(case, k, seed), WeightScheme(kind), SolverConfig())
    assert len(sols) > len(CASES + SPECIAL)
    assert sum(sol.guard_pivots for sol in sols) == 0
    assert 0 < sum(sol.degenerate_pivots for sol in sols) < sum(sol.pivots for sol in sols)


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
