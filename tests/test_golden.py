"""Golden SHA-256 digests of generated instances.

Each digest hashes the little-endian float64 bytes of ``A``, ``b`` and
``x_true`` from ``make_instance``.  They pin the exact draw order and
arithmetic of instance generation: any change to the stream, the sampler
transforms or the Gaussian cache shows here as a mismatch.  The 7x9 size has
odd m*n, so a cached Box-Muller variate carries from the matrix into the
planted values.  Gamma(1, 1) reaches the Marsaglia-Tsang candidates with
1 + c*z <= 0 (about 0.7% of them) and F(1, 1) boosts both of its gammas.
The digests were taken from the scalar sampler; they are
not to be regenerated to fit a new implementation.
"""

import hashlib

import numpy as np
import pytest

from rwl1.instances import DistributionSpec, make_instance

MAX_SEED = 2**64 - 1

# (distribution, params, m, n, k, seed) -> sha256 of (A, b, x_true)
GOLDEN = {
    ('normal', (0.0, 1.0), 50, 200, 8, 0): "cf2c444eef69082aeacd0c12e87c0c54ea14b5a08fc4f3bfefcde695bcbabdfd",
    ('normal', (0.0, 1.0), 50, 200, 8, 42): "5eb8ff9c63b46e502e006e9198b13d9ada9ee96560488199789d1ec784a81972",
    ('normal', (0.0, 1.0), 50, 200, 8, MAX_SEED): "753be07436a80d1b54e7a61cb40f92757d0aa6fcd97c82b383dfb55bc96618bf",
    ('normal', (0.0, 1.0), 50, 200, 50, 0): "ed6a8693a9046a0b110f9efea66e8bd9ff5f0a17a7942ff934c04233512f1a57",
    ('normal', (0.0, 1.0), 50, 200, 50, 42): "f1a00fcb4532f37853a61df157a6f44bacaf5db74a7a80a04cf49f18ede45323",
    ('normal', (0.0, 1.0), 50, 200, 50, MAX_SEED): "3682c956a629b4132b265bf1d37d690704e059e99178d322423b66b8c1d1bfd8",
    ('normal', (0.0, 1.0), 7, 9, 5, 0): "e162c67cf64cc0cae8dc7c7d4a13288b57c567b7a474b5881123743b074d53d7",
    ('normal', (0.0, 1.0), 7, 9, 5, 42): "0245e4beae4392408ebd326f9ad393ccbba3e225fea2cce83b5df38662dde22b",
    ('normal', (0.0, 1.0), 7, 9, 5, MAX_SEED): "06c90cd46436004571da658a3973eef5aa2d5c9e5f7af50ad0af1bc40a6a6964",
    ('poisson', (2.0,), 50, 200, 8, 0): "7eb6082c7548b1e0aae20a255775154aeff5fd2c44c90ad3966e2f17e0e209ff",
    ('poisson', (2.0,), 50, 200, 8, 42): "281bcc262d55635c537619cf9fa06b56559aada33b4c38454b824a91bdf5cb86",
    ('poisson', (2.0,), 50, 200, 8, MAX_SEED): "fa3a6f2343fbf0b1d6068d7e0f241bd7b3f7ec89c0690ac759a3c1b04bae918a",
    ('poisson', (2.0,), 50, 200, 50, 0): "adecf9f6ae757e4e8ff41a2a95b9388814713ae332b8b6279565185d35051d02",
    ('poisson', (2.0,), 50, 200, 50, 42): "966b09dd838214ef2c8d2b36cf61ff84823897888c3c20e4bb56832072cccd78",
    ('poisson', (2.0,), 50, 200, 50, MAX_SEED): "9f9f35cd6825841d760a878873ccd6e7ff0a94fe106369711a7d07f08a227679",
    ('poisson', (2.0,), 7, 9, 5, 0): "026682d895914eaa20e7c5b97a082ba69463b74ec916762ae6fd6d94f752de40",
    ('poisson', (2.0,), 7, 9, 5, 42): "d88028d2a03185f0dd96918c0aeb9d4017c9071331c908744a9f4e7eaf78835d",
    ('poisson', (2.0,), 7, 9, 5, MAX_SEED): "7068b83a7f1e34af7f3cba8dadd0526ea579a27f667e855a8e2a1a6748049a9d",
    ('exponential', (5.0,), 50, 200, 8, 0): "fd8630691cb0cf9473ab1a021959140dd16eed2dd66ecb5575a2f3d9076b33d9",
    ('exponential', (5.0,), 50, 200, 8, 42): "30a3a33b950c0127fe1c6c7d9b2be243392580625eb0a6e1354f581f692b005d",
    ('exponential', (5.0,), 50, 200, 8, MAX_SEED): "517368b9eca812f157d14cc65ed2f91d6df0f97f9890727c7bcb250cb3584bf0",
    ('exponential', (5.0,), 50, 200, 50, 0): "1211314fc5542b7b6b1eb3d71ce9630eca5dd04c6823265a673a68a5bc200e1d",
    ('exponential', (5.0,), 50, 200, 50, 42): "41578516c7c0fc06d7b0765e603dd2de8b0cb992ca6c8cafcc43e26e8270e847",
    ('exponential', (5.0,), 50, 200, 50, MAX_SEED): "a09921ecde13961a0cd5543e274033dde6188a43e9a1d18f324d1825fc923a36",
    ('exponential', (5.0,), 7, 9, 5, 0): "668042c9a52784fe5fc0d0beb6e13f5eac0dec3a1d8c445c1a8bfdbd31433506",
    ('exponential', (5.0,), 7, 9, 5, 42): "4303cf76cf1e2915954ebb87174693e5e08670a469e51531c95244e80c50fc6e",
    ('exponential', (5.0,), 7, 9, 5, MAX_SEED): "15029a8deb08bb786f0020f96a7a8a46901757d89957df58aa3da90d9413b311",
    ('f', (1.0, 6.0), 50, 200, 8, 0): "325142ad80b457ee988e78293a41ffd75504b0d9d59ec3dc456e07249cc7a563",
    ('f', (1.0, 6.0), 50, 200, 8, 42): "f2de42fcd77d3ae5928571b9f280ec9e2185dc1bbbb8969934decc6a5c32abde",
    ('f', (1.0, 6.0), 50, 200, 8, MAX_SEED): "b0cf76fa2f5b5d09ade18a1f73dd3a8da8149e7bc306acf5bf647fd8edc261c8",
    ('f', (1.0, 6.0), 50, 200, 50, 0): "af327e6b183fac8ebdebf0e08b5aa64acdb15631297026b73c702789e6e17135",
    ('f', (1.0, 6.0), 50, 200, 50, 42): "cc2a5b215467cd4c7f337dbad49b1bbe26238d4d811803f409c25e2f5be22dce",
    ('f', (1.0, 6.0), 50, 200, 50, MAX_SEED): "614b7fec08d536edea5b8ace15dc6b7c432d0f7bd95bc2f17c408def9c3dbce0",
    ('f', (1.0, 6.0), 7, 9, 5, 0): "4af3fcd01903c2592d69e89db19a7dbaee237d6ae231d91dfcbd1071bdcdfb5a",
    ('f', (1.0, 6.0), 7, 9, 5, 42): "dfb04e0fb784b6b66dd1f4c3bb74602605334f12f5695a55f3efbb14e8008ce8",
    ('f', (1.0, 6.0), 7, 9, 5, MAX_SEED): "c8d78fbfbfca9b5c236f8aabed65b78b675c47cd633b586448607c0ce246ef64",
    ('gamma', (5.0, 10.0), 50, 200, 8, 0): "4a7ed972bb112eb154f083225d7ccefcb8594b2886bfaeaccf8fa03be9fafffa",
    ('gamma', (5.0, 10.0), 50, 200, 8, 42): "4c2042f149110a44c81c98c395b9a579bbfeddb19a7114a862e938c6ad6cf1a5",
    ('gamma', (5.0, 10.0), 50, 200, 8, MAX_SEED): "48a51f3b9cdb2581ab580d29c4a016b822ada90e7999622891c4c469a9f76078",
    ('gamma', (5.0, 10.0), 50, 200, 50, 0): "90205892c07a87b2cd0f662f5deb8543a064a38668d64a2eeb2065927fdd3ba1",
    ('gamma', (5.0, 10.0), 50, 200, 50, 42): "069371a4d429a96734ab5f8d6d25cf073b2eeed6e26a7115641980fa16e35518",
    ('gamma', (5.0, 10.0), 50, 200, 50, MAX_SEED): "8ab9180c215cfc03f9357657089aad8c1f64c0709dc8f0fa3e5f0353ce93b5a8",
    ('gamma', (5.0, 10.0), 7, 9, 5, 0): "ff4877a135d14a84e64bb3328484a4f450b13c048c9c9f778e1f87f5d9d030ce",
    ('gamma', (5.0, 10.0), 7, 9, 5, 42): "9d3b1e44733246d9ef8a77dfb9e7b8ca2175e3a3e0ff8d6590a4459b5e39ea4b",
    ('gamma', (5.0, 10.0), 7, 9, 5, MAX_SEED): "99ca22831c299a1d1db56b201c8cc3ac850118cae2f20e6197b46fcf70868cfa",
    ('uniform', (10.0,), 50, 200, 8, 0): "1db4f6307854476eb968d600c295d950b553911774551783ca28e8d461d05c57",
    ('uniform', (10.0,), 50, 200, 8, 42): "8f5126b29fcd73ecd3f91a80070c57f958bc82137e4b56fff3fcb15507ab7ea4",
    ('uniform', (10.0,), 50, 200, 8, MAX_SEED): "9a7748eec15d5a17a3d8c69d878d96aee258402cfc36be05f2c73f8aab962337",
    ('uniform', (10.0,), 50, 200, 50, 0): "ab813bfe2810078b85872f50acdd5057a60e48c310711a8edc3d6feadc374fb9",
    ('uniform', (10.0,), 50, 200, 50, 42): "e597ead6d51fb1c1b6962bbda2c7533fc439a4e0ecdc0c4328b324a81cad6327",
    ('uniform', (10.0,), 50, 200, 50, MAX_SEED): "b3ff1fb1298f66b1f3866d6343bed147c3c92593b8de20a6e2f0613c3f394b7c",
    ('uniform', (10.0,), 7, 9, 5, 0): "091bd85cb5afa519089316faf05ddcad3d21144679e038d89ce897042f50fb30",
    ('uniform', (10.0,), 7, 9, 5, 42): "89cab438871522657209b70b86ec6a997a0c0d90b5522fd2a17cb38e4906f83a",
    ('uniform', (10.0,), 7, 9, 5, MAX_SEED): "01ea4cfbb80f77a283a3536c41c1860df7250ed34d75b31668d84466ea814742",
    ('gamma', (0.5, 2.0), 50, 200, 8, 0): "5e807220d72ef505022425a3fd3960e810aa797298636273f1f3134c11b0fe11",
    ('gamma', (0.5, 2.0), 50, 200, 8, 42): "4a6a7fa910a618ad3e1fd877f8cc6084c70db2bb939594fb45338ed50a842260",
    ('gamma', (0.5, 2.0), 50, 200, 8, MAX_SEED): "7939b29b377cbc842673d045240029b3b66300f271ff139979bd7d22142e04e9",
    ('gamma', (0.5, 2.0), 50, 200, 50, 0): "790e22fba5fd432f2d532f8f3c576167a94710326cf4b81345e89dfbe8c7df9a",
    ('gamma', (0.5, 2.0), 50, 200, 50, 42): "7b76204a22ba7616f9a732c239ad28171f6477a345e269b625201212467da87d",
    ('gamma', (0.5, 2.0), 50, 200, 50, MAX_SEED): "a66dd6857083cfcfe13d96512c73790d87c782fa6e22533f697e4de8a88e8b5f",
    ('gamma', (0.5, 2.0), 7, 9, 5, 0): "59500ef919c1bf2a224a53e758b8813786fd056ae0f455780f4b0a0098022d33",
    ('gamma', (0.5, 2.0), 7, 9, 5, 42): "88fdf763964645c52645f7f2bd16c635f3ab752bd7724099ec4df14bd83d9d6d",
    ('gamma', (0.5, 2.0), 7, 9, 5, MAX_SEED): "2a99114b49f90a8aeace40217cddec9eb8e78cd465865d5bdee495a6fccbe0e1",
    ('f', (2.0, 3.0), 50, 200, 8, 0): "28a1256063099811f0c86173420f66c012625b28e8aabe5fcc6f06801afd76ca",
    ('f', (2.0, 3.0), 50, 200, 8, 42): "89e8695e032ef25dc781ac0c76b1f269aa9a3409a146a265269ff324d322ae8f",
    ('f', (2.0, 3.0), 50, 200, 8, MAX_SEED): "7872519251cb343d7ff73c13aa9767df5ea8e9be13e0a353c7068f661c77fe11",
    ('f', (2.0, 3.0), 50, 200, 50, 0): "83eda7feafebe17a420a94fab28bfff67af940b42361d6506055ebb7d4b65159",
    ('f', (2.0, 3.0), 50, 200, 50, 42): "5b4b4145d86c38f6377243070c452b279d78c1c9f1a796b17b019dcf662575d2",
    ('f', (2.0, 3.0), 50, 200, 50, MAX_SEED): "f5f9b5fd53cf9260fadc221286a603bbc00b0769a3230c52502e4e9f9eebda61",
    ('f', (2.0, 3.0), 7, 9, 5, 0): "9c6e4aaba58b5632d39725f84d610300573bd94625d099c761bf13d78beb20b0",
    ('f', (2.0, 3.0), 7, 9, 5, 42): "52a7450a5eb47a708c8d6e909a50e25765776013fc377f126ea0e5b325d069f1",
    ('f', (2.0, 3.0), 7, 9, 5, MAX_SEED): "35db07116bfffa48e89f6a5d464f5da9f5082b9ae7ddeff36d1e089aab83f2e9",
    ('poisson', (0.2,), 50, 200, 8, 0): "931f09d2be54110c1908c62b10bffc856982eb7816455f6609768bb7c5f35d6b",
    ('poisson', (0.2,), 50, 200, 8, 42): "762c233a176414dc249e31db5d871a756d5a4879331cdd43fc109bcb60ae00c7",
    ('poisson', (0.2,), 50, 200, 8, MAX_SEED): "1a435f25b489da6638ae73113a9755d8f7179e8ca3b303d926334dda3602778f",
    ('poisson', (0.2,), 50, 200, 50, 0): "f5a50d1ed8b34473065fcca67e24f5806f3e277167d396beee8e3f8b6a57229b",
    ('poisson', (0.2,), 50, 200, 50, 42): "c3f2ec1281613b2cc377f5c2bbf373354d77d6b4da414fb82644cbda78f469f3",
    ('poisson', (0.2,), 50, 200, 50, MAX_SEED): "6c1d0e14cc8e3e7e0b11cd1d1c0310dace2feef0cc995ff63cb8f99eaddddc15",
    ('poisson', (0.2,), 7, 9, 5, 0): "c0a29bc274908ae718184cd5e751ab96403f22cc8aa7689de3665acbc6d27547",
    ('poisson', (0.2,), 7, 9, 5, 42): "4881d3ad77c88488dbf51a3b8435774bea279901ca37db1718044f040ee5ff53",
    ('poisson', (0.2,), 7, 9, 5, MAX_SEED): "61cef31579255bec4d4f81fa5bb7756fc2dcc514dbdbbfa131978fac43df7e74",
    ('poisson', (30.0,), 50, 200, 8, 0): "548f1a3747abc04699e67b4a1cff197be4edfed391c6778efc855adfb02497ca",
    ('poisson', (30.0,), 50, 200, 8, 42): "0b859eae11f2bce5247f1b9ea5c80b4316d12cda96df397cec3bad389b3bdb24",
    ('poisson', (30.0,), 50, 200, 8, MAX_SEED): "2464389141f48812e7aef15c1ae5c86d328d20031e8c244b2d76b394cb8ac626",
    ('poisson', (30.0,), 50, 200, 50, 0): "9528d390d9da53b1186c8503fff93d462862febcbd7a06e917f12cc40ae76250",
    ('poisson', (30.0,), 50, 200, 50, 42): "ebca454e711cff099eed294bf653eb8464ff9a80d15ba80971003dc0adcb31c2",
    ('poisson', (30.0,), 50, 200, 50, MAX_SEED): "a6d4d19f6eb4895ea34a9c9ad1dc0961daef6b99fe104bdfaa6d3f11434f3dd7",
    ('poisson', (30.0,), 7, 9, 5, 0): "e09408aa6bcb40b9625336db36e867450de31ab510608e5bf46ea2b625cb2cca",
    ('poisson', (30.0,), 7, 9, 5, 42): "8ec9447587c21522dcdb28778ab7d61daade46c2dfed3199435116aef7187c8f",
    ('poisson', (30.0,), 7, 9, 5, MAX_SEED): "e12323c7337a73d6aae1396fb4704b241edf489e37371da770bf7f9c56a830f4",
    ('gamma', (1.0, 1.0), 50, 200, 8, 0): "ef7b16853edb8ce331680aaec0d5005e9a428ef79eca70485eee9fccd1888c1e",
    ('gamma', (1.0, 1.0), 50, 200, 8, 42): "8d0af275dd72e6aae8f20577c780fc52db1a220d52548fb0e893c79d17daa119",
    ('gamma', (1.0, 1.0), 50, 200, 8, MAX_SEED): "dcf80f6a0303303f3908acc2a1955ca2e6fa1307bb6b1af9b15feede9bdd1de0",
    ('gamma', (1.0, 1.0), 7, 9, 5, 0): "dec9bc9f899d9cb14c63f2d26940de659c06d66d4da26a8493ff0dab280aed2c",
    ('gamma', (1.0, 1.0), 7, 9, 5, 42): "dbd2e2a268cabda94a94e6766de418605286d3788c825cfe98af28451241276c",
    ('gamma', (1.0, 1.0), 7, 9, 5, MAX_SEED): "e661251f11874ae0db12b1c55b7e267a12a587969fe24782d71ad93c121e272f",
    ('f', (1.0, 1.0), 50, 200, 8, 0): "8245fe2e32b7a1114601428b5dfeb230457af9e3607237d0e3e37b4b26cdd808",
    ('f', (1.0, 1.0), 50, 200, 8, 42): "d37d872780014921db1d1f3bbc08c39b598d2ed1293c1936d29d05b460540e7c",
    ('f', (1.0, 1.0), 50, 200, 8, MAX_SEED): "7e6c73e9a87e8a8d451ced607a84023029821d4f7f86c437e6e3a9b555879862",
    ('f', (1.0, 1.0), 7, 9, 5, 0): "4dee09a67955fcdbeda4cd17622ecf9023698d4b8e205759a3af6866f7967625",
    ('f', (1.0, 1.0), 7, 9, 5, 42): "66bb93d880ef44927edd78313a34b12141d7b47ec19810c4567a2aa17d3e7402",
    ('f', (1.0, 1.0), 7, 9, 5, MAX_SEED): "3a7729c86ebf60716b23a28e252ff0f0af05952adbc8f5b976c8e7b29765187d",
}


def instance_digest(inst) -> str:
    h = hashlib.sha256()
    for arr in (inst.a, inst.b, inst.x_true):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def case_id(key) -> str:
    name, params, m, n, k, seed = key
    return f"{name}{params}-{m}x{n}-k{k}-seed{seed}".replace(" ", "")


@pytest.mark.parametrize("key", list(GOLDEN), ids=case_id)
def test_instance_digest(key):
    name, params, m, n, k, seed = key
    inst = make_instance(DistributionSpec(name, params), m, n, k, seed)
    assert instance_digest(inst) == GOLDEN[key]
