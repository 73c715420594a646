"""Golden SHA-256 digests of solver trajectories.

Each digest hashes the recovered ``x_hat`` bytes, then for every LP of the
reweighting run its pivot count, objective and eps, and the optimal basis
``weighted_l1_lp`` returned.  They pin the whole path of the simplex: every
entering and leaving choice shows in the pivot counts and bases, every
rounding step in the objectives and ``x_hat``.  Two extra cases leave the
crash-basis path: one whose leading columns repeat, so the crash basis is
rejected and the first LP runs phase I, and one with a repeated row, so
phase I deletes a row and every LP falls back to phase I.

The digests were taken from the solver that priced the split LP through the
full ``[A, -A]`` matrix; they are not to be regenerated to fit a new
implementation.
"""

import hashlib
import struct

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


# (distribution, k, seed, scheme) -> digest; special cases use ("crash" |
# "rowdrop", 8, 0, scheme)
GOLDEN = {
    ('normal', 4, 0, 'l1'): "9d44f92a4274e7a18491d45942069011a6b9d26bb654b04835d0129efe810416",
    ('normal', 4, 0, 'cwb'): "99c81024a779198717dad1a270f05410adac5f26e3dae3a60666b09dccd70dcf",
    ('normal', 4, 0, 'zl'): "244959ec6dcbd76a2df5957d5e53ff8076df68fd33f1eec13eebae9992938578",
    ('normal', 4, 0, 'w1'): "57942982ae8d121c1e5d764ea1a39deb0c2cd5624db49c99f0e4ab6be9d36f9b",
    ('normal', 4, 0, 'w2'): "cc89b7d27aff8c903138d0499965392da3378d71ebeacd76425ee9b86e47270d",
    ('normal', 4, 42, 'l1'): "dd945ab6d498ee6ad83676e3ca9fc5c7fb0d4e5b826263fa42c47bc9438cd73f",
    ('normal', 4, 42, 'cwb'): "26eb5fabf92ad807f417c540092b8ecddaaa21c8016bb824c11933b5cfed8760",
    ('normal', 4, 42, 'zl'): "8bc9de66ca5bc1e1f026e32fae75157e029a460b2a66b12e0ed19a0d0e00e4f2",
    ('normal', 4, 42, 'w1'): "77c9821a2a0253677605051340561d47ce82d21f42e074b4b2cab24b19a4d2c6",
    ('normal', 4, 42, 'w2'): "d64c88021ffc08e7ac78e5957d157ac4aaf33969dfb6d7681dac1b81e9bff289",
    ('normal', 16, 0, 'l1'): "572762fa971de5bac66a3125a5ec236c19f79850e8f3754a077ab6c774ff8a9d",
    ('normal', 16, 0, 'cwb'): "7385006eeed2f30e13107213af581d2aca24a0737007311604a3d6b80096f066",
    ('normal', 16, 0, 'zl'): "499543668b307eae1c52632146ec13a42fd4a24362756e27a37ad42a22e342c2",
    ('normal', 16, 0, 'w1'): "b2d30a1e1117bc3f032c956ac58344d7fe9f434dd57f4ccedc38bc2ddb4bb56c",
    ('normal', 16, 0, 'w2'): "ef70972e24799997e64657c2476f7eb3cee1c3977a1620e7128a19049d0cfd86",
    ('normal', 16, 42, 'l1'): "1f3634d47f72c7cb0ab45d57efc98a5272cd5c8faeac36f63e66008144784ad1",
    ('normal', 16, 42, 'cwb'): "09be4e7ac4e196a97e151461ccf3db03a390a6dc5b922dee4b514fea5a85d4ce",
    ('normal', 16, 42, 'zl'): "696a2fd0ec508c8eb250cfcff6de2a9a1a761ddfb32dd676ec9fcc1cd4176ce9",
    ('normal', 16, 42, 'w1'): "8949fb7b320bfae3400fbf8124bf88c13bce2aaabb0ae27c739d4d587235fd07",
    ('normal', 16, 42, 'w2'): "890cef9f01c4574d25dca850b62ffcf0c244538a31f804a494e969725c7fae0f",
    ('normal', 24, 0, 'l1'): "cba6275441b9924d65e69bbbe92c2fa813b8b5f99b5f5be2f743f4dee3cc6654",
    ('normal', 24, 0, 'cwb'): "3d7431c653d3f4376a3e245f9d402fd49e5cd85394dc81c3e5efe3c02f5cc6af",
    ('normal', 24, 0, 'zl'): "fe2d5220cb17e745e518a0ce4236f54284ab369f91f6236e9aa84329b4d0129d",
    ('normal', 24, 0, 'w1'): "e07bf77ed90f5d66be2729266ea134961930cf4716837d891631f2abbba5765d",
    ('normal', 24, 0, 'w2'): "f88a0caea92071551c1146127b10b8ad08243b42d8662cdf35e0eb04942d58de",
    ('normal', 24, 42, 'l1'): "a7938791ad74bb49435de5646e63b03583fbff01c8e226b577ec0acd40e09d83",
    ('normal', 24, 42, 'cwb'): "4ae078a7b905418d0247e66181eba70336af36c3cdc9d9b8eae317e009c49e11",
    ('normal', 24, 42, 'zl'): "9271a966f43a63d0db1d6f3213173b06777250f71ed06ff77643652add72db3e",
    ('normal', 24, 42, 'w1'): "d134f9d0bc4c867ce390dc6ade518498bd82a646721a27dd3cefcb193f7f6264",
    ('normal', 24, 42, 'w2'): "ac4b17d491d7e90b2ffc02c3063331ec16e49cca5fc8ea91e11d77e03779be9d",
    ('poisson', 4, 0, 'l1'): "ad7e3bdd5477713197871a86646bfeac4e5eebdd23c6f252e9c1ef8f1f4d29ce",
    ('poisson', 4, 0, 'cwb'): "1fb68ffdc5f24e819f56178adb286000169f8559e7e9baf9bea5e8a0b8e6fe94",
    ('poisson', 4, 0, 'zl'): "17093be5687f5f3b35947a5693edd81d2e4d72f8df1a78e81d5f4a024898c4a4",
    ('poisson', 4, 0, 'w1'): "6df310807b92856198b1022f94dea676ae1c91135b3cd48b0c9e0cdec64b9ac6",
    ('poisson', 4, 0, 'w2'): "6b0cdf85ce158a29e0ad22546f55ed03bde425d12b0ae83b02384d57b5514b4b",
    ('poisson', 4, 42, 'l1'): "fabd17c30282b61f916fb35a52c7be72c3963e5d720fc9e19bc87a030e6bdcb4",
    ('poisson', 4, 42, 'cwb'): "7030270bc0ec1a8024d6fd10c9cb0816c0325cacf8239bc60ba04638eccb3034",
    ('poisson', 4, 42, 'zl'): "7865e9a022eb6f9b5beb284dbf86597cb21d3cd5ec31725e8f569b1ea4471fab",
    ('poisson', 4, 42, 'w1'): "45a95a2cef814c33af4f1d32710aa6848919e562afbcd9700f1137d2db0a2145",
    ('poisson', 4, 42, 'w2'): "e779ff655d62f58242ac0210554505a2d8de4e5ec16f787cd6682b63b3e8673e",
    ('poisson', 16, 0, 'l1'): "39f2f6dfe7f67e33b35e793759d394ccee81d6c78e7f2a05de834f5633dfc803",
    ('poisson', 16, 0, 'cwb'): "ca1b1b060c040d58da498b1e12b3182e0fd6be70789f8dfb06fd42492cb4d89c",
    ('poisson', 16, 0, 'zl'): "eab2d53fb01c954b3fe650c2cf4ca6b6508c7bf4996e5344dcc75f50c86fdb40",
    ('poisson', 16, 0, 'w1'): "e222c8770a5917e8f2c24ff5e46a6f4f13dd4fde6a8961d2dbfca520d40e2f85",
    ('poisson', 16, 0, 'w2'): "4dc50cc98a33eb472d5ce957744a1ba404b1c9cc240f1e64cc79cae458550b9f",
    ('poisson', 16, 42, 'l1'): "52c5ae1df024a345851db2b3bfb6c85afc3d63a38aeca82701705f292a398e9b",
    ('poisson', 16, 42, 'cwb'): "ce00824713a9a2d8ccdb673413615001b67368c0ff24e9c418320a435e6ba80f",
    ('poisson', 16, 42, 'zl'): "854148bf9b706c7b0c61e830b3fd09f86097fb2e7e0f6c9239bbe647d742d488",
    ('poisson', 16, 42, 'w1'): "2255e01bae9887f5f85478c227062a3a529ef1f1acf427f75373defa438e6215",
    ('poisson', 16, 42, 'w2'): "04f53bf476ab2fbfec60af5fac7823f8b358ed877c209d5e94f1635669c31e18",
    ('poisson', 24, 0, 'l1'): "707ab3f47db83f7d234a8f565855e30301b48ad09b684222db0000d1ac4a241b",
    ('poisson', 24, 0, 'cwb'): "4121ed3a2124bb3c5f9603a075335eaa237937a29478407b9154962fd6d3ce63",
    ('poisson', 24, 0, 'zl'): "81fc570280232924fe2494cfb67e228cd099abf426095e5b05a4981ab59c19ba",
    ('poisson', 24, 0, 'w1'): "059c133e0494df5d27579958f7e1b23f3301be4e16489313b919fc5f4eaf949a",
    ('poisson', 24, 0, 'w2'): "3ef35a1c081a52b1dbc976e96ad71d4a4722ba234a137c5868820c6bfe721657",
    ('poisson', 24, 42, 'l1'): "11d3fdfa364f974d8ef9587c7a41de20b0ed25d1b261f3f87a77e9ca7e2d8810",
    ('poisson', 24, 42, 'cwb'): "06a646e5963ce6a00bed7891656cd6322c9c41a3e27a6c5e7a966749b7ca8233",
    ('poisson', 24, 42, 'zl'): "98739fb4228d1a00bddcaa859edf5c11d530582b60c4336f0ea8ae1c554cc69b",
    ('poisson', 24, 42, 'w1'): "88215ad8bed160f2228eebacbcda86998a88ede088460a1b128086646350bf77",
    ('poisson', 24, 42, 'w2'): "ca0c811e0ae6f987793dca25511fe8521e20670cbbd647b4eaa0b8235146ab01",
    ('exponential', 4, 0, 'l1'): "9ce18dd23d83a84de5c6059526384990efacdd6efa89b6ea1f930bec56297ade",
    ('exponential', 4, 0, 'cwb'): "65f7808de005d5d875791c4ea68bcf43cba6eeff288c487ed0232b59294a8973",
    ('exponential', 4, 0, 'zl'): "93e7b39a1b86e242d996f9faadaa0d9e6a95f86e24a7f3f00e68ec0b5222799b",
    ('exponential', 4, 0, 'w1'): "574556bc5ab436b31de4dac23b3108f2170b20a02bd3bba419f45afcc8ba6c7a",
    ('exponential', 4, 0, 'w2'): "60601df30a478913a2d1f85087ac966e0e6dd1bc1ae9d804c12bc87e9d60c345",
    ('exponential', 4, 42, 'l1'): "c010f3b95e032106fa53a9a15a1fc7b18422473559b06d064e40968bae125bc7",
    ('exponential', 4, 42, 'cwb'): "2aabeeb1eefb0811f478fa0c67488f3752b89c8b93faafb32172adcde931d51d",
    ('exponential', 4, 42, 'zl'): "d211ed51d6b50dd00d599789067d82d604fb415ce67ebd345bbbdddd8cc117ac",
    ('exponential', 4, 42, 'w1'): "d3669d2c0406e5f047531740af0992cef3c2b0a3777b6d57913a075c7f7df6de",
    ('exponential', 4, 42, 'w2'): "bea4565768e75c42fe439f41345ddff34011ff2c026f8dcec20c8989bda78c01",
    ('exponential', 16, 0, 'l1'): "508b3528fcd766c101cac6863109d70869bc08ec0c63db3cc381ef446a5c6852",
    ('exponential', 16, 0, 'cwb'): "586b45e27b759bc5a56b857a45c7c68af074ef79c551b4d669538ba578ae0091",
    ('exponential', 16, 0, 'zl'): "129ff0249da597dd0022b67d01fd1d4b2dbd2daa8b5f02a0f9bc9d7caaa5b1be",
    ('exponential', 16, 0, 'w1'): "a257fbd918e1ee715561fd28ebdd6638703e09b1d4a9e57ec502b234cb5d7241",
    ('exponential', 16, 0, 'w2'): "81342b0a8dc4e28b24d0ba5ba3b356f93f7e75f8a936df1a4c840b76305a665a",
    ('exponential', 16, 42, 'l1'): "4df4bff64060ca8ecdc337296f97d7f067501708a0586fb6c1579e1e62e768fe",
    ('exponential', 16, 42, 'cwb'): "d98a6e3cadd4c21fd3b3be5af8ca0c10959aa94eeee165707ff93efc060f6791",
    ('exponential', 16, 42, 'zl'): "ff517640c0acff69914048885faeb0e38d0732fcad9fc714786ef52d29f15325",
    ('exponential', 16, 42, 'w1'): "0565b662fff2826c4c6673d066e6241dd721e59abd81186ef9c88b2ad652d8e8",
    ('exponential', 16, 42, 'w2'): "033babac96a33df81dcd81ca4d9e07c541d32c06a792ce640cf1c57fc654ce05",
    ('exponential', 24, 0, 'l1'): "5a1d416c2756956fa7aab4dccae26b7dabb469a56b6fb01551ff832212dd0eec",
    ('exponential', 24, 0, 'cwb'): "ab0e75c9a148471ecf70dbd01cffe00ebbfd8ec080ad36f3a50e8a05d76326ef",
    ('exponential', 24, 0, 'zl'): "e4178b7bc8c96e9cd6266aef62e7b8571e5b3bf6c38846bae320bcb0a48e7e0c",
    ('exponential', 24, 0, 'w1'): "ff7e8300ece7045ff346a3531f7985b89e6adcffa2e8ce4bab0720fb2e3d1c30",
    ('exponential', 24, 0, 'w2'): "86a9375cb8b29a38548bab5afc59d974f52bcee8b60a1ac46ba796a1b827b9f0",
    ('exponential', 24, 42, 'l1'): "a38c3608a6b498d2564f6ec29b7209a2c15090be143e3d427fbf170739632a91",
    ('exponential', 24, 42, 'cwb'): "5a782cf8ad2936ebc2352fb72d8da7c3895c3d68deb0500dd25c1cb828adf998",
    ('exponential', 24, 42, 'zl'): "45012db84660d9c45f511e1cec02e4dfb200205602943a1369564fb31cd41b1a",
    ('exponential', 24, 42, 'w1'): "e29a0742df4a26e1c87da650c55477ae1c7935f7bc6800f0d3fbfaff4465450b",
    ('exponential', 24, 42, 'w2'): "ff13af7c8ac61ea1b5aa48680ca2ac97bdaf5845a8939eaf2f7edf1f386cb425",
    ('f', 4, 0, 'l1'): "706def46957eefb26fa6ff545c85beb876033653d8c78d903e5056e7b3272bfa",
    ('f', 4, 0, 'cwb'): "01405f20a83d9c842b8108c42d31cd5cf4f4adc76d3724b57468a73f25e8686c",
    ('f', 4, 0, 'zl'): "24a39a8e9452ef666e5878705c217f28a1f42d9389b4539d74184f2d54334d17",
    ('f', 4, 0, 'w1'): "aad9c705a9d2d38ffcda44320b77bb81550021c0315a3d0758d7b85b2590a078",
    ('f', 4, 0, 'w2'): "ff89a9ac8e8c918fee90d73203547634561fcab9cd580d650da7d71171de1adc",
    ('f', 4, 42, 'l1'): "641f2f0ba2f6ea9462f9cdf8dca54c7ddcc4cfd5371b3348a9878da44e657746",
    ('f', 4, 42, 'cwb'): "6f9869ead8fe8f5e377a8ddc232a646e8d41e0548fe246aa980777594a13f02f",
    ('f', 4, 42, 'zl'): "df8c4644a781b47770117006eabf0924bd65175c842687fa59295f16d6efcfa8",
    ('f', 4, 42, 'w1'): "a091ab4676f8cacf0f40ad7619249e7f09f9eb52cf6accebd1e4d991c10b9431",
    ('f', 4, 42, 'w2'): "095653d58f869f44130fbc149ad323ae9cc017b33c11ba01298520b23a37d7bc",
    ('f', 16, 0, 'l1'): "d2f91706587802c9e5940747fe2a6c4cdbbac2bcdf80cd88af60dfde98d30cde",
    ('f', 16, 0, 'cwb'): "efe4dabef49f0e813801b1fa0105b635cffaf2be806048fc99027ccceb335b5e",
    ('f', 16, 0, 'zl'): "0c1bb1691d9d5c95cc1334c1fde60e4315e89cf76ec857d675fc7b33e42a261b",
    ('f', 16, 0, 'w1'): "bc76db6b88da13bdc10b2eda9ba7d0b4f18d58725b2c7724ab63ad3cc7d652ea",
    ('f', 16, 0, 'w2'): "57b00522285459b8931914b78ca0540ee926efde07ff42baee659cf382a90fe2",
    ('f', 16, 42, 'l1'): "496dc3cc23434e74186b5104166cd3146c48d8bfefc25d46c7461c7e681f1158",
    ('f', 16, 42, 'cwb'): "b2f370c297f9d8671ff60058199a89971b7b887344a8c9dda9d909b959eef787",
    ('f', 16, 42, 'zl'): "3b5ab1fa0343bdab575d149b7ea59d4ba30db5f1a0a67e1e3b490d5fb3c0917c",
    ('f', 16, 42, 'w1'): "a86b9f6a15b84af854fd6f1a84ddf542b2b1e038426a16f38df48179b4b2cea1",
    ('f', 16, 42, 'w2'): "c3198e749334d4db006455b40fdb1d2bd6ed679f255009228216af9afc17cb93",
    ('f', 24, 0, 'l1'): "306a462a847cc42952456c9fa7fa034ae581bf0d0965d1bf8b5f6e1b905e230f",
    ('f', 24, 0, 'cwb'): "73708a00e43a7ec125e0ccd71deee2199deaa6934beb219727071ecd13e2f298",
    ('f', 24, 0, 'zl'): "784838af96dd6342d6a2992bf4e5727c8930d2b7b96428d4435b5d45fc025c85",
    ('f', 24, 0, 'w1'): "a37815c3757126fbf76d29c76f856cfeb0ea95a521be3e9f8532108ebe5ccba6",
    ('f', 24, 0, 'w2'): "f0ef01b87b8a6a7357c7e8ff8dbb34125375eba90904050068cfe3e93a79308d",
    ('f', 24, 42, 'l1'): "fad71a41c11defdafe64db3442bbb8883a74045a3ce219c856e04dbabb5e099f",
    ('f', 24, 42, 'cwb'): "e25dd992fbb3897c593f043d73f38ca7252b1870b7414f1a1f255ae5c0912d74",
    ('f', 24, 42, 'zl'): "9389ac3a9f6c9e606ab474170b05fbe8c5c7aa1ad634e616f4cf01666500a6df",
    ('f', 24, 42, 'w1'): "b838333d7372ef2ab4abaadb6c4b736cd38096b0b5495a19fd7c3fb0d0ed1e9e",
    ('f', 24, 42, 'w2'): "4b54dfa84c804ab8538905622466ef0285a31690f6760d37b54c23b415c0c6a2",
    ('gamma', 4, 0, 'l1'): "ca5b10bb82f46f97368228fc2b98a7f87c3a89821dabb35836d6bfa8f0289ab0",
    ('gamma', 4, 0, 'cwb'): "97c8b1c72bf744b17903ab878855ad318808ef57351701f8f456babd85155b14",
    ('gamma', 4, 0, 'zl'): "a32f4a7fc6db2096fac8384fed16ca1ba9e44dcbcc5e21c990ac20cbf1c0aeed",
    ('gamma', 4, 0, 'w1'): "2587f94b9c0aa93b526f9aa63ec39b77fd79fe274d1f9162debabe2b8ef7e402",
    ('gamma', 4, 0, 'w2'): "4c3d3319b8264e5958130261628287a59c3ad28fa6ffb0751f3a6927dafe7bc0",
    ('gamma', 4, 42, 'l1'): "256e2561fb4a9aad168ec506cf9f333e73d64b04c1c7f483e57fb2932ea57ac2",
    ('gamma', 4, 42, 'cwb'): "928993ea75d0b1deb367eb2e365b05b7f37c63508f6edc77a5d2b7ea722e3567",
    ('gamma', 4, 42, 'zl'): "2f5fd7b5086ea686495bc6850994355b3b1434dc814730a3f0c466596a444d24",
    ('gamma', 4, 42, 'w1'): "f253b5cb15ac874268344c2685afe0ecbd250c2c4a55d1a1e462123b134e29f3",
    ('gamma', 4, 42, 'w2'): "930b213c8456f4121841a5f083d15cddb751527dd4bb68d35e39063b4853f93e",
    ('gamma', 16, 0, 'l1'): "53aa340ab695e7351fdda59e48e67621bf8c9935b98da1f6c9f62a6eaf083ad9",
    ('gamma', 16, 0, 'cwb'): "eaf33cb4375b6c6fc4e441ffcfd351024afc76799c40a486286ad12b410e7d95",
    ('gamma', 16, 0, 'zl'): "f67c7c9ec79442c8c2da62c9deadc68ae77d47ca3cc067febedd971ca004246c",
    ('gamma', 16, 0, 'w1'): "b481b2d0dd6fcaa7ff60701c1e8993aedc1afb7ff2d42c7cf809cc7d0b209839",
    ('gamma', 16, 0, 'w2'): "277715e80fd5fe8ca2fccb7d6a68bf175b0315257fd0ade36075a2870afb58a1",
    ('gamma', 16, 42, 'l1'): "9266e43237a1583cc7736073623151722dc7514aadb7e966011d46c831d9c887",
    ('gamma', 16, 42, 'cwb'): "903c7a5b71ff30b616e8940b87d51d40c78135fdafe4c3a006225fe2bd51aa92",
    ('gamma', 16, 42, 'zl'): "957c96ee45ce458df93be81d0674337c70eb124d8382b6e2df69c247ae51fbbb",
    ('gamma', 16, 42, 'w1'): "c6f1895dbc1095e36e79568d73058cd9547ca37d2bee8cbc886c4bab50707eca",
    ('gamma', 16, 42, 'w2'): "01b753a9904e0b4cf4b219c043e0a83ccf2515cc751e5cd5eba386130597ee33",
    ('gamma', 24, 0, 'l1'): "2becd3b52156e82ea5573abc476c6ccf78a509dd6f5856da84ea6887280de15f",
    ('gamma', 24, 0, 'cwb'): "955c97f4630e43ec36b11bcbf6c63592de959cce6fc35b8434b0830d69044920",
    ('gamma', 24, 0, 'zl'): "2462bd26fffd82844ba81490c132003806afe145c64f89564274473cac37d64c",
    ('gamma', 24, 0, 'w1'): "7218cfc4dec6fbed21c055f4561af1d94c3c06fee666fb19f81aed110a617ac4",
    ('gamma', 24, 0, 'w2'): "665404e75fcac3232ea2b36ad8bc9ca7bf40d498d77efae24c9fbfd5dafd4edc",
    ('gamma', 24, 42, 'l1'): "5e1e57211dfa8a556bc2caba32d8c2833b67e20358dbb36868dc16ace17d817f",
    ('gamma', 24, 42, 'cwb'): "1a7d7ca1290188f5e98cb89ffc010e9ba531eaad40dbd961a6118465ac1a6679",
    ('gamma', 24, 42, 'zl'): "d2e44373262a597b4f404757d867e3730a160675cb254cf1743e323cf1c5bb50",
    ('gamma', 24, 42, 'w1'): "ad5cf1797cedc15819940c7a4a0274be799436d1db837b3633f4bb5c0a7735a4",
    ('gamma', 24, 42, 'w2'): "3e5751dd355ec048c45854c73cc8ec9e525c68461a7391ecf6b9fb825565cda6",
    ('uniform', 4, 0, 'l1'): "173360e1ebc98112ede7e20e3481601017a912c4a636a55d37f4bf7d1b487d1c",
    ('uniform', 4, 0, 'cwb'): "bc5752908ea0cb4e321312a8c6e7322b5365637c5a5b41d47ce3d98057ee9f1d",
    ('uniform', 4, 0, 'zl'): "2698ec56efff8dfb386fe5108a5c17e846fe9503e8827518e00b1aeef38aa65c",
    ('uniform', 4, 0, 'w1'): "3d1ef04879b046b42232199fd5a09d77238bc0ce23be92a59a9d43bb43923fda",
    ('uniform', 4, 0, 'w2'): "4db45565e06d583a1b8b84e4e76348ed521fdfc31682326b2524304913e23796",
    ('uniform', 4, 42, 'l1'): "0aa004557231c12735ddd2b4e279c95f714f1dc42af190e1ef51ad148b536b21",
    ('uniform', 4, 42, 'cwb'): "b6cff612c3a867f614796754a7126fe765000d10cf8759a3dc2b6cd6966ddb8d",
    ('uniform', 4, 42, 'zl'): "dc7d33e986f8a21df797be912b61f110e929c88cb9497da500ff2cc2a6098d33",
    ('uniform', 4, 42, 'w1'): "61b85eb1e755879cc4c8bdb08b3c3d44a481718b9cbdd61f56f812ce3c0bd45f",
    ('uniform', 4, 42, 'w2'): "c19ecdea05afd851b99d923c831e45001f6b24be2b005a071a00f02100a580c4",
    ('uniform', 16, 0, 'l1'): "653d0916b7eb802afd2a98540cc1663d268bdeb7072e2f03c7ac6ff949c8bcb3",
    ('uniform', 16, 0, 'cwb'): "c1ebe0f720621d75e8c1faa1e7f79ce4ac1447c4c9279878e065868697730b99",
    ('uniform', 16, 0, 'zl'): "e63d9299395e19d1b593d608595322848154998912b7533ab4094ef196074108",
    ('uniform', 16, 0, 'w1'): "e1b0a5437f71712af1437aaa7bbf9e2b16748fa154759de5dca546194dc3ad0c",
    ('uniform', 16, 0, 'w2'): "3bc4c1b55dab5e81a2aa1a9fa0ce96c4d30c7f0128daf85d395044816e989c53",
    ('uniform', 16, 42, 'l1'): "dd06f8ab45d2cfcbcc54f1f5c0a8e34c98f44987b96aa3a20db206eb45a114cf",
    ('uniform', 16, 42, 'cwb'): "494f54022a653082e4914ca3f83c132e5a1e9c3e956397c5545c01d51a2c3950",
    ('uniform', 16, 42, 'zl'): "7f0f9bea9afcdb065446213446b171d57553f2bf6d00bd91b7e7892942203779",
    ('uniform', 16, 42, 'w1'): "d49e002cabec42ed7d2fd956234629679d4f1a2d48f4e1aac171abb8ba553ae4",
    ('uniform', 16, 42, 'w2'): "53024796905f9e5e9f6db66009b35a586f5d933e46a6eca0cb9e58eef8a697a1",
    ('uniform', 24, 0, 'l1'): "24e31c64bac9f98106a9a4aacede25a034dc6625998325aba1c5b57c1a2b5ae3",
    ('uniform', 24, 0, 'cwb'): "d0fa6d43b3bb8410a8330bbca67d6adca86fb4a0f064e3ade1268cc471acacca",
    ('uniform', 24, 0, 'zl'): "47f1b5df345f852f0b0f1dc339b168b61eb027ac4c40eb6f189a646d4b37bdd2",
    ('uniform', 24, 0, 'w1'): "cece5a061ebbebf7d8052363dca1221d4f9ec694ab37db5c4e9ade904f970efb",
    ('uniform', 24, 0, 'w2'): "16837c42ddd59759c784225ac8f2309e985f775a57433d99b7567d23545dfdd8",
    ('uniform', 24, 42, 'l1'): "7bc1818d2e48f31e60a8bd5de62fe2037257b9ee02f001d240444c1eaf63ba55",
    ('uniform', 24, 42, 'cwb'): "2a5ede53e22c9f6beb33affbea6bae60f0467f81f11e02c1e0c2bf66c131cccc",
    ('uniform', 24, 42, 'zl'): "3a54f03e46d88cce9f686e62d541f756506cc81877e2c85cb2563e84c4539ea5",
    ('uniform', 24, 42, 'w1'): "4335880f2dd76db817d3f6b194abdc81fc1e6f8da09c84f6766068b03a847ca4",
    ('uniform', 24, 42, 'w2'): "edbdcc77753eafd6f7b58d90b3353effe3348bfb30f4f6eb882d0d5639b7d97e",
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
    inst = make_instance(DistributionSpec.default(dist), M, N, k, seed)
    assert trajectory_digest(inst.a, inst.b, kind) == GOLDEN[(dist, k, seed, kind)]


@pytest.mark.parametrize("case, k, seed, kind", SPECIAL,
                         ids=[f"{c}-{kind}" for c, _, _, kind in SPECIAL])
def test_phase_one_trajectory_digest(case, k, seed, kind):
    a, b = special_instance(case)
    assert trajectory_digest(a, b, kind) == GOLDEN[(case, k, seed, kind)]
