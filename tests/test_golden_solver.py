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
value golden passed unchanged both times.  A third time, 144 ``CASES`` and 8
special cases moved when each warm LP began to adopt the B^-1 the LP before
it ended with instead of inverting its starting basis: every pivot count and
basis stayed the same in all 190 cases, and only the last bits of the
objectives (at most 1.2e-12 relative) and of ``x_hat`` (2.1e-13) moved.
They are not to be regenerated to fit a new implementation otherwise.
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
        bases.append(out[3].basis)
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
    ('normal', 4, 0, 'cwb'): "55e520096afdabfb23629e45786c3b45101240a8b96d9811b0fb12992323d581",
    ('normal', 4, 0, 'zl'): "91bda1ae5ea3b28732c2be39f1518837cfee646eee5955605a6db381f700866d",
    ('normal', 4, 0, 'w1'): "bdd3f71407ef255698b20ced27d9f3b8caaf41b67232777c9aad66369a6a4f57",
    ('normal', 4, 0, 'w2'): "3590085290085634e07555aef8fc5b560cfaaaaf3e0418cf7b8cbb7a3d4cec9a",
    ('normal', 4, 42, 'l1'): "fe0fa24c3757e18eb99a1560a1eafdbb6ae1513b6755801721dca09301d630b2",
    ('normal', 4, 42, 'cwb'): "fcb1785536de96e60331500274c6a50f938e3940a557ff6faf063a6f1d6dbf29",
    ('normal', 4, 42, 'zl'): "effd9a4b298dda7793acca1c45dff82baa29d146e9458b558bfe692a9dab342a",
    ('normal', 4, 42, 'w1'): "36c24b122e0705615ed2c3f989d7226ed0ecc86d23bb04c642c5623779163b52",
    ('normal', 4, 42, 'w2'): "9b9f0cc3ece5ff42cc226fedc3398cd1f4e63fcd037ed9a8e5ae0b26c9d063b1",
    ('normal', 16, 0, 'l1'): "d68ad9e1e3b53aee905d38efa64ec4f0ebd34e16d681d899fe84b0e41c92efaa",
    ('normal', 16, 0, 'cwb'): "d7588f9ec5275f74c7ab96a8f073dc0d41e05fa8f57b88108fad6034f9a1a5e1",
    ('normal', 16, 0, 'zl'): "d8169cbe22c7140f6752906b259fee663fa80a19db17275ad726ab9dfbc64bf9",
    ('normal', 16, 0, 'w1'): "1c179590751d2350220d56b88735ab421c58e7e1f8e9900e8da0929ceb0ed1d3",
    ('normal', 16, 0, 'w2'): "03e257d06edf674169b034587a3cb8b167d6e66ab5eb1a28405c324f14a62bda",
    ('normal', 16, 42, 'l1'): "a95f9a083e607ef69a347a85bee29b08d4e1bcdab69213a8576c0edc92277a63",
    ('normal', 16, 42, 'cwb'): "a9237fe4ca86debe9bbbde628f95730bf8bebfe4bcdd0bd04d0ab6b26770f65e",
    ('normal', 16, 42, 'zl'): "0ce060815a2b22e0db319ba302190250ca0a51577c924fa72b63a63bb887d055",
    ('normal', 16, 42, 'w1'): "e5b437d24ab857d55832830ffc34cf373c7557d99716aed205e36abd0e089907",
    ('normal', 16, 42, 'w2'): "83049ee7a9c096ad20ee4a740c534051ee70cb3ceba12a249d278cc3d5579e22",
    ('normal', 24, 0, 'l1'): "6baece11b8217dd9e872205dff7a6e1b169b38aaa5c0eaa7588b1e028b2e3fa1",
    ('normal', 24, 0, 'cwb'): "8f53db088da98460dc28b1275a484c25021852877db4b527709581d74b01652f",
    ('normal', 24, 0, 'zl'): "66bdf5aa50bf408ce0691f2f2d6e7b2511740ba2e22e8fc6360bc887c36c3918",
    ('normal', 24, 0, 'w1'): "14fff4fe07c8c8fa49414c3c236438fde9c014ce1830df68d6e477391decbe21",
    ('normal', 24, 0, 'w2'): "cc235f751ac642d94c0cc047d2ef08eec1c0df64c1d1de660f30dceaa00db9e8",
    ('normal', 24, 42, 'l1'): "ba6614e47f03d654864668014bac381952b4b5bdd9e13b63fb0dc9257ea8c73f",
    ('normal', 24, 42, 'cwb'): "60afcd2f20116d9059623c851ba6c9a80fd30995773ac491e264ba6916dfdee0",
    ('normal', 24, 42, 'zl'): "89cb106260f34e2baeb31b73d7fd59f059dee2d54b82431873f339efb7fca4fe",
    ('normal', 24, 42, 'w1'): "210a1f34cbb44bfa40ee385fbd39a81441b68d22203485468f38877507a671f9",
    ('normal', 24, 42, 'w2'): "46b162910abff56c6cacac255648ed8c721ced8b1b5e529ed29651dd0c765272",
    ('poisson', 4, 0, 'l1'): "ddc78d0faa14171bfb6c16c0525643ccb4d1c44991f7fd4db4cbb7137b965e22",
    ('poisson', 4, 0, 'cwb'): "d24ed8071a94ebe65c7479c2726ae02d5f8dbe7a4d95676ca9ec41c57ab4b282",
    ('poisson', 4, 0, 'zl'): "c950a8da922a10101300d93556d9937d583d1fdef7a49577ce71b29d87816a31",
    ('poisson', 4, 0, 'w1'): "c30414bd75a89bbd182db42e9af8a3fc88a984beba781296227b5e5cf701a27a",
    ('poisson', 4, 0, 'w2'): "9bd95c11ef1785d2c6e544b8b8f280881550be91da8c13ead9bd0f139bfc3dcc",
    ('poisson', 4, 42, 'l1'): "4d5a0bad2889cda2fae7e564ccbf37610f1dbb00513ee3413183821b278da9bd",
    ('poisson', 4, 42, 'cwb'): "fdd45b5bbda101b43cb1e06e8a0aabb50917e5d151accbdf46565ad9da54cdae",
    ('poisson', 4, 42, 'zl'): "6b3bdbea287eb6d3042ca2b219e5c73d93fd0eb4b9b69dbca4bed809ac4f24ae",
    ('poisson', 4, 42, 'w1'): "5793787c58e9cb066f90fcaa3d82c18887a12dd73e4ba0058699ad5586c6f8d4",
    ('poisson', 4, 42, 'w2'): "34b53c1e800c2f5158b73f90509c35c97ab0fba8bb0be459fb07dcbebca41efa",
    ('poisson', 16, 0, 'l1'): "ac5345e05358c8feb4040483d07b3adf43b1ff6f73841e0c96919ae8a0d1b5ef",
    ('poisson', 16, 0, 'cwb'): "f2836df333080a15b214e7f16afbb161f8162a85a3feaf9f823964ad4a24004b",
    ('poisson', 16, 0, 'zl'): "e34a2d6db8e0e1b72320705f0eb6e7e6c92e2af7d1194676cea4dc9e8ea58942",
    ('poisson', 16, 0, 'w1'): "3995ee3ad55c655d4e943b4996a9b2b1377d9f806d78a83f689bfe8e4878048e",
    ('poisson', 16, 0, 'w2'): "ef9701c2ac30e627f4a9a72477b88463a0a0219a87c37a389ac6fb533b9ac22d",
    ('poisson', 16, 42, 'l1'): "02a64b5017e0c22b4193978c762d1d3beddab8abdad4a635bfcacb24ab8b7227",
    ('poisson', 16, 42, 'cwb'): "2491ca80676d19b65699b29ead9b3974fb2856c0d31afca8919567d69aa2f5cc",
    ('poisson', 16, 42, 'zl'): "f15beea041b348e4d7a4d024d198ac07d11dbfd331d7f0add52d52605f7dfc2f",
    ('poisson', 16, 42, 'w1'): "4766fcefcb76bf705f66a1e68f125003cd10c8be077c559346d4dc5096fe6ec7",
    ('poisson', 16, 42, 'w2'): "d5a0a29f0fb5859f562041681904ab19df8fa69be557a81bace60766e3f8461a",
    ('poisson', 24, 0, 'l1'): "ca0beeb17593edccc87726b0aaec1886aaf11dc43c418650d5a45703c012d121",
    ('poisson', 24, 0, 'cwb'): "fe3c3725f1e10855bbf52efbfbf15f312c3effa3e08d761f64627affb339f853",
    ('poisson', 24, 0, 'zl'): "6b05e3cc375ecf03c28fe7a017fa41ac9686197a148ca2bd13dbec051235244d",
    ('poisson', 24, 0, 'w1'): "e095b0b0ce8959f329f4ad452c9a33694aa5d8fdbb9553a0b0c0bf1c1ab15d39",
    ('poisson', 24, 0, 'w2'): "77f3b7fdd5b27d4c89e5bddfad688b99245830d1a6e4420c8396bb10b2332072",
    ('poisson', 24, 42, 'l1'): "66b073c75374cfde8d632f0091a57a2dc51c5fd74b7c99a7ac23ba30a676d0ae",
    ('poisson', 24, 42, 'cwb'): "24af51f533c3612bcb0416a709ce5586b0b33fc8ba19207dd1021e1888b6ce29",
    ('poisson', 24, 42, 'zl'): "19a80d1a20e6704edd27c89374dd76765b6d3ec6540f64913a084f1be0a91cac",
    ('poisson', 24, 42, 'w1'): "7a75dd8a6fb6759adec18067112ce26ee22d67c5bd4bf1b0430bb44295989625",
    ('poisson', 24, 42, 'w2'): "07bf75a59fd024015ac5993bc36254505aabefcf5b6351b2d26329c6048fdcda",
    ('exponential', 4, 0, 'l1'): "51867259b62ee2a0acda8e63a803b8966fe00a32c8e4c13672a32cf0a50e49b8",
    ('exponential', 4, 0, 'cwb'): "19d3ce09a8a45c536c9d060d51d4a22a96e91328e9608f7f96cb92a918287e6f",
    ('exponential', 4, 0, 'zl'): "4d38bc01fc4f63b5f871de8141bdddcfcdcbbaf35e865f505a0afe2e8bd22283",
    ('exponential', 4, 0, 'w1'): "0cdf162f9c801064dd970c8a852ec0113a9a8428db17ab9f645b94c631c7d958",
    ('exponential', 4, 0, 'w2'): "7c6c31dd0567e8f769e196a6ca05ee718d8180417539fa9af8f9353acc8e7801",
    ('exponential', 4, 42, 'l1'): "f115142fa186a0512dacda07bb95dbe1568bd5c7c6d63edb45c73cb3c3dcfc44",
    ('exponential', 4, 42, 'cwb'): "d10970e71e98d210574cbf0abd335cdfcce6f98cd70c7a95cbee9da0eee41227",
    ('exponential', 4, 42, 'zl'): "38610f758373b080f75190d92940178145fb6995d0cf666b3deddcbdc33216ee",
    ('exponential', 4, 42, 'w1'): "4d0155fb5647630773e4b42b6bfe3326e30afabb683a61394916119c703b0190",
    ('exponential', 4, 42, 'w2'): "236fd5739b205254af2abd0fa9a697ad3eca090952331501db922aa121d53ec4",
    ('exponential', 16, 0, 'l1'): "a0e779a352b03284960dd0067a8669afc19d0dd13392b6ac355e360ffffd7abd",
    ('exponential', 16, 0, 'cwb'): "a53a04bf9c4e0f29ead5bbe4a41f47853ee582f3c17183c4b159ae9476da30fb",
    ('exponential', 16, 0, 'zl'): "d9ada5c3160b853aa43f2dbf6a92d890f8c22649c6d642966f4c5ced0d375027",
    ('exponential', 16, 0, 'w1'): "3adc198989e46a4d8ffd34abc57257aff5e8729f352b97938a3cc0a5064d61e3",
    ('exponential', 16, 0, 'w2'): "3a375b40fd82e3a21a0a86a7a57e085562f788b7505a6fbd1331684f8750eca2",
    ('exponential', 16, 42, 'l1'): "bc82a221b38c7eaa88762e96fc3528bb1045c2fa01d1048c4391832dd7c65ea7",
    ('exponential', 16, 42, 'cwb'): "4c1451d763b12ca70207921c1cd2a89dd3ab86b9527a84f44bcaebb406e3c13d",
    ('exponential', 16, 42, 'zl'): "7d3fcbc1dd9cd8f6bc9afc4a6a80867909b2e67d9992731347626a900887cc52",
    ('exponential', 16, 42, 'w1'): "e3917b4f205454a6ab62f817418fe0f0d71a368bdd97f32578f4a1797ffe4e89",
    ('exponential', 16, 42, 'w2'): "693d3740e39275d9eec7dbb21b39e4fe4af48bff1b8af2baea4207c3f8363b9c",
    ('exponential', 24, 0, 'l1'): "a107a9b390e001361451155fd506e45c61c4eff52b5997105d530bb3056b5257",
    ('exponential', 24, 0, 'cwb'): "70c8c87bdeedd6314c3122a293f6f38345494c0e5d43791ff669927cc45b34c0",
    ('exponential', 24, 0, 'zl'): "346c7bddfde95b6e43463916e943ba7768c475739eab1386b4ba6f03b7f37e36",
    ('exponential', 24, 0, 'w1'): "10a7c108e594cc9fa08a3b031b34d91c22c3a117b10be85f26bc454d1dc560df",
    ('exponential', 24, 0, 'w2'): "df255d53e47b2bef44d07b63b76d5e239a55a7c79b85f663712e0739b6252dac",
    ('exponential', 24, 42, 'l1'): "5138e642e67ab5cbb4b7f9d396f4396de4a7f0db01589c9b06b7eb85f27147ef",
    ('exponential', 24, 42, 'cwb'): "425521ea8dce554047cee0b612bb8f1b959d8cb297507243ee489656c03fd735",
    ('exponential', 24, 42, 'zl'): "275be5d4615545d2974f745a616a08692b0b2b3654908ba65b17d4476376e13b",
    ('exponential', 24, 42, 'w1'): "aec54d73db2f82cb9e0f48aa39a948391ea4e16115d197705533117e037bfde5",
    ('exponential', 24, 42, 'w2'): "d937de750795c328de88994f93446dabc01449e5a37465c699b364a4fe737fbb",
    ('f', 4, 0, 'l1'): "23706675a0bd9c8cde85a8c8cc9e4804e042802645dd1038568182b07e86a11e",
    ('f', 4, 0, 'cwb'): "91bd0ad6df5cc868f6e7fd739974730fff9d0d7cf115fece09f5c8bf5e55a82a",
    ('f', 4, 0, 'zl'): "a345e1a96fdd2fd0f6d15423490b41baec4654e4541660a8ce553d1465849c7e",
    ('f', 4, 0, 'w1'): "3788b45266331c4832f38025d1f0956f3372f9cf09c057f01c5b61e828091493",
    ('f', 4, 0, 'w2'): "ce46843b023e319d90a3faaa5ac10e4345b3ce38e68f255f22d8be42ed5a2d69",
    ('f', 4, 42, 'l1'): "87bb8159c5259a24382533872af0e91fa4ffcfb47b5197d678f01b2e75ede411",
    ('f', 4, 42, 'cwb'): "e486057f88f73f0ab560b2623b711ef3022af7b93c7aa067ac57837d84a6f261",
    ('f', 4, 42, 'zl'): "b1c5a93fe83ec034f30154116e71391e57bbe1fc4ae6e42abc4642613106f9bf",
    ('f', 4, 42, 'w1'): "6b43692f2debbdf3646f34eeb0c83527cc939a64c15f27a5276e5d371c9ef2e0",
    ('f', 4, 42, 'w2'): "b35672b3ba2832c062a4a4e9dc6ffa13f4789c524ae11267a2f66c1d0b786e90",
    ('f', 16, 0, 'l1'): "976208b6522608cdd191fcf8ffb3e93dec57567227f98a533c35eea40192e3a7",
    ('f', 16, 0, 'cwb'): "e5373faf1abbf89cf1594d2d0c0d7ab5139e84a1da542e7012235191d8bd46c0",
    ('f', 16, 0, 'zl'): "71db925e15d9c5073418e85ea8b85e6c5d72ad013e4a0c7f94096b8c333706b2",
    ('f', 16, 0, 'w1'): "0beee80e20d00c90bc55f2d36c60b46c3c44b13c2ef7e7ca36d486fa30f9411b",
    ('f', 16, 0, 'w2'): "19d0ff21fb44c4a5368cba93f50daa63bf9f5e4ad4a78d6cee68fa0290a8d949",
    ('f', 16, 42, 'l1'): "aa743b6924b8542f695ca60b8c3ced9dc907f4f717606456de2ab8b0d432032f",
    ('f', 16, 42, 'cwb'): "b122c46287c59056ee13d9be7aeed3ec6b6a4c7d7961cccad6b139271e53c453",
    ('f', 16, 42, 'zl'): "b9ba6268f45e8facf390896f5e7b0809f7e192f0d934a7432d2e5a06d80363c1",
    ('f', 16, 42, 'w1'): "83796214fb8a4120f97eda93874087c4f6a594e93d39322dabb1a273b53be412",
    ('f', 16, 42, 'w2'): "d3a03bec4cfd1f643c3711f5b6240787af1b620dab9319af615bdd633be8dcc2",
    ('f', 24, 0, 'l1'): "cd8f36e815cba58f168210dc0da08a564941227a2acd491bb5d0d0f8d407240b",
    ('f', 24, 0, 'cwb'): "d5062e70781a0296121ba8c70d044d3a87d12201b3e6eae01312f04013d8ab07",
    ('f', 24, 0, 'zl'): "5d5092f0547e94de1c727bfd7dff756418f248087ce7576c44105e8ab62898c4",
    ('f', 24, 0, 'w1'): "69450edd3d188e59f0add032b5c3a58623de8b1d66fb9b6f87f508347526314b",
    ('f', 24, 0, 'w2'): "a5331cbc6d2e09059a962f56ecfd389f7372a021faad506a271ac509d038bd25",
    ('f', 24, 42, 'l1'): "3b848aea1c8537ff5b0eb46224d1011c572fd1486324855eff2d22f10e5a2cd5",
    ('f', 24, 42, 'cwb'): "66f7203a24b8795e377d7cb25cb50e963d3bc917cae95cddc5ad7f4f5ac0bbbd",
    ('f', 24, 42, 'zl'): "818e30c8d131d20bbf519611c3314d558805e6e980258301a3727fffb6af61ce",
    ('f', 24, 42, 'w1'): "1ed94483baeef62f7024d453388eeaed32d3974d19ee254f63c34b09e0050dbd",
    ('f', 24, 42, 'w2'): "da9b875c5affd3880c971408dada655b34beffbb283fb72887d5aa8cc6d015bf",
    ('gamma', 4, 0, 'l1'): "90004269c3777fce38b9936f6a3badd993330491efc060783d13a10561464b20",
    ('gamma', 4, 0, 'cwb'): "fc3352872961058209928a24369cf2fbfdf011a0fda22d7fced8e3351f5ac662",
    ('gamma', 4, 0, 'zl'): "7ab7fc89fd687c4b5f47c27b2f916ddc01f53ca52169570251a55c2f371089ab",
    ('gamma', 4, 0, 'w1'): "0985863583886353f07fbbbcf35346926da61184f0bab658e2dc08d70c5369c9",
    ('gamma', 4, 0, 'w2'): "7882361fe80f4c3301523a4455d45a30c17c5a42b3adbbb7bce928abf93e5a37",
    ('gamma', 4, 42, 'l1'): "19f8ea578d68f88b470483752a9369895f49acd6c045d05354c0ddabf961f366",
    ('gamma', 4, 42, 'cwb'): "e12770cd25cecd0e65ab20a5847bffbd86e7c96209e9c9f84251a04cbead11cd",
    ('gamma', 4, 42, 'zl'): "35e4b811e7a869bf99c7f44f7462fc756b3e1b8ab10c5250cb75ea7b354c30f7",
    ('gamma', 4, 42, 'w1'): "684148428d43ddbb549cd6835001b875ccb111a2d1d8d236ca8889fe574db042",
    ('gamma', 4, 42, 'w2'): "9ff2613bbdda4ab1a3b49b7731d5b016f0c2c1b07cceca5f02e7978ef8d69b5d",
    ('gamma', 16, 0, 'l1'): "728b76fd17de1fd23980039d23dc63bb5c95a2e636f9ba23adaca21fc00ecacf",
    ('gamma', 16, 0, 'cwb'): "56499db9e353746b38ece52e3dd96c8e082a92020a3f93afda1a204d08dbd5af",
    ('gamma', 16, 0, 'zl'): "06840cf9157a685f1c0c7388a6599f31c1f53df9267580654f37ec43e20db5a8",
    ('gamma', 16, 0, 'w1'): "bdd592a258a93ff61a390e03d1991a7813f4fbf7c19b68d64cd4a7a19ffd7ba8",
    ('gamma', 16, 0, 'w2'): "1e5f6761cdfab06fd575c99d58a8cf99d2a6e52a23d1193664ec3edbb3cd8ea1",
    ('gamma', 16, 42, 'l1'): "c72b8c4b9f2178699f5c84d5f8c56a9dc4f8dd74fa8db1a85d2cd8f312e71dd0",
    ('gamma', 16, 42, 'cwb'): "1aa7dacf810676657efbf83301b91bc4aa4c50d9a0ce86ea7d8467561ecc1c69",
    ('gamma', 16, 42, 'zl'): "eba034c15e95b581278116327f1fa1487777bf0b6a22c8405579944c8d11a49a",
    ('gamma', 16, 42, 'w1'): "6b2c03a09753315b477e813f19c94ebbed0579b3409de5e714ab9b0dcd180c16",
    ('gamma', 16, 42, 'w2'): "27f622fff1eead2f8b729e2bb95953960afc171920058188d06cbee7e239c089",
    ('gamma', 24, 0, 'l1'): "16367cc0ff5ee35aabe7215150d1891658a8f619b1632ebc3fce0684a0d09215",
    ('gamma', 24, 0, 'cwb'): "8ab245f3c0015eb644aacf2ae258191eb2cd95b82d478dea14d6051233518fd1",
    ('gamma', 24, 0, 'zl'): "e7538a88c4b7dc654bd90c76ba31b3b54994f01c52a2bc0beaee7afffc15d9ec",
    ('gamma', 24, 0, 'w1'): "0b417e1a48b483d7454916b96414fa893f3d64ee44b7ba08b896882c56b3b8e2",
    ('gamma', 24, 0, 'w2'): "62b1326cb1d9ef4c44784be58f4aaf33801a43964ab2c95188069c4dd94f37fc",
    ('gamma', 24, 42, 'l1'): "9de024142fec08c350d32728fadbc34b76a2b3fd03935c4f18b2d46370ff3edd",
    ('gamma', 24, 42, 'cwb'): "191a353feae84a135faa8f7864cb586cec67d0fcde8233a399e8fe6afa6f7d4c",
    ('gamma', 24, 42, 'zl'): "2b9e624b7d11aa8c9cc4d24308c384bb91dffdaae1841f0cca57da1c9f78d0df",
    ('gamma', 24, 42, 'w1'): "9c319879af52ee67032ca522fe08d823eca19f3f90b12e90685cd9ea2bc6632b",
    ('gamma', 24, 42, 'w2'): "ad1fd9ff6c051d0ce494e8eecdd9fdd23f86ea800b34bc78f81b1e0e45faac4e",
    ('uniform', 4, 0, 'l1'): "0037d5003fe4a2ce05d28dc0b155f212e85c10cf7f5f505a162594e444fbf524",
    ('uniform', 4, 0, 'cwb'): "0eaaca3fc0cb198327ce8c23d0c08f84b51337850fcbc9c979befd485caa3e20",
    ('uniform', 4, 0, 'zl'): "bd276faf97520331ec68c5e59cf0de21c48de86f4cbb014cf2eddda7b0b12adc",
    ('uniform', 4, 0, 'w1'): "faf65c4153f6d258e1e57c35f13665f73c163da20c6e75e9357ff8bfce0df374",
    ('uniform', 4, 0, 'w2'): "e2523f539a321e9283fd8ce9e64533bac522c183188f1ef0f1f3fbd06a342152",
    ('uniform', 4, 42, 'l1'): "f693014f98f2dfd897e3c4d3f25073fbbc3f4e493606f76b56060aec156a2658",
    ('uniform', 4, 42, 'cwb'): "dfbfb8cbb68ccbcc6dfcde1d5cc403446e00c58eee37e09bb6017557b5a70a0f",
    ('uniform', 4, 42, 'zl'): "3db18a7c304482a3bea45249742fe848f359f51b01ebb222194dc86a43799802",
    ('uniform', 4, 42, 'w1'): "f638f076cf96e4d56287bf5fa68143fb9533cd7d0175233014a7db3075a990de",
    ('uniform', 4, 42, 'w2'): "5078ed64885770fc9a30481747ea26b383e0091b2b6ecbcc13fb2426a4008ac7",
    ('uniform', 16, 0, 'l1'): "7c3ce267390a3bb0d3e9e45fea33e79e442d36f9dfd81ad9a1cad8d3815294cc",
    ('uniform', 16, 0, 'cwb'): "a522882e23f1b6f1b945a8a83cc8898a85b25d095a220812688c01417ad99147",
    ('uniform', 16, 0, 'zl'): "b1a8bebb6fbf901fadddd63fde8adaa29d9b8a3ff66749ae6dbfc9c0f93e429f",
    ('uniform', 16, 0, 'w1'): "3a24023347c5494ec8f7bb5322fb3f9b1d333056abd97ba3ec4f092c2df4923c",
    ('uniform', 16, 0, 'w2'): "e82061e65d316419649ba7ad40a2c5e8760762f9822442c926d9681389ac841e",
    ('uniform', 16, 42, 'l1'): "add8445b2242a254ef018c45ad2b38f5b7dd318b50aef59cdc47592373bde3b7",
    ('uniform', 16, 42, 'cwb'): "b19bbf19fdb321e7704c43d49cd678a5546e7e7463b0c49d6bd97de8f9954c0d",
    ('uniform', 16, 42, 'zl'): "c0c02cf1a4b20769128167f7997e9f840855631c74689a9e4717f1580ecd3bba",
    ('uniform', 16, 42, 'w1'): "1382e69bcac45d77f439f8a8d60b3a18c3d3209941d351109e0929822b96b551",
    ('uniform', 16, 42, 'w2'): "0c0eba6c91759f267abe0de38a820fd84cd9c6b9abc2f7f971b0d73b4ba47a8b",
    ('uniform', 24, 0, 'l1'): "087f20844debd0a93d1938b1fdaed9d345520460d138dfb807aac938c563046f",
    ('uniform', 24, 0, 'cwb'): "ebcb6681d2ba90e2d93d725108cfdff0f5b30de09ba49635edbb87cd9e9c9b47",
    ('uniform', 24, 0, 'zl'): "2856ec7ed896e52ff8423ab3e9ce3d69e0e5c8364bc1fbfe9822f09999faef57",
    ('uniform', 24, 0, 'w1'): "93efc480b4b9de42e7b45cb2405aa426b8c56ee5c44030ad391fa25382ef2ff3",
    ('uniform', 24, 0, 'w2'): "bde3de4f8fec39acd6bf78c05d38e8a75d121af282af56af77306fade7cab0cc",
    ('uniform', 24, 42, 'l1'): "0320207a44f31dc3ea62d67efbaf39943674089615e173c3fdac7c2d4b94e211",
    ('uniform', 24, 42, 'cwb'): "4aaa0cae497ae185d1140e6bceeace8e5ec9d79339516a441d0eebbbf7431237",
    ('uniform', 24, 42, 'zl'): "f5c59f8c970a6328f6d0cf96e24af05b071a4f17482972a3a7e4f792da8ab129",
    ('uniform', 24, 42, 'w1'): "512139c8e2586889d985d9a42f7cc1d6f26f32375a6745454b37dcc4bee4dc09",
    ('uniform', 24, 42, 'w2'): "215646d38a69ad0a8a9e01314f75f5d9e3f344341fec8d5920f9b82bd82ff00c",
    ('crash', 8, 0, 'l1'): "d2c36308436dfd2ef2789efbcca348f0da2319562fe1ecf52c154d21a1832177",
    ('crash', 8, 0, 'cwb'): "4efb37ea6670b1fd1daa225d48211aa5b180d2515717c276f9aaf7175a032b33",
    ('crash', 8, 0, 'zl'): "fcf1057949310cac802dc8c323fa35ba00778fb14eb54c3d358658acc4eda8af",
    ('crash', 8, 0, 'w1'): "599b17d433e4dcb473729185346e5d28158e01ed69a3e21d2cb66583eab3c2c3",
    ('crash', 8, 0, 'w2'): "b10cab3012ce6b1c3dd4ddafb40bd2ec912caba8c9a5317d78571b991779db63",
    ('rowdrop', 8, 0, 'l1'): "c8d72608e22c06d05f63287162b152af6e06bda46901fcaf6db3b606c14b0eaa",
    ('rowdrop', 8, 0, 'cwb'): "255d6ef0e3cded00296d03139eee0f36fbdc95376066c39f946321a1e08c259c",
    ('rowdrop', 8, 0, 'zl'): "095062bf51287fb31e5b3e36039204d91195f58a0d0d8ff24bb3c6b87cd5ac85",
    ('rowdrop', 8, 0, 'w1'): "4b1eedb78067e7322fc4998891046e217372380da8bf2a05912abd237955c3ed",
    ('rowdrop', 8, 0, 'w2'): "72494e14b84b018f1a9a14dde7524a0b4e8161f74e7be430b6351f002c9a1ab3",
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
