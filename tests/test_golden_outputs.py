"""Byte-identity guard for the golden outputs.

Each command's stdout is hashed with SHA-256 and compared with the digest
recorded before the refactors that touched them, so any change to a byte of the
reproduction report, the figure CSV, a ``run`` output in any format (with
or without the gantt chart) or a ``compare`` table fails here and names
the command.
"""
import contextlib
import hashlib
import io
import json

import pytest

from rrsim.cli import main
from rrsim.policies import POLICY_NAMES
from rrsim.workloads import STAGGERED, GeneratorSpec, generate_workload

COMMAND_DIGESTS = {
    "reproduce-paper --format json":
        "f367b24579e5e66fddbad2e6e43f1e62dc367ed571d94ba9e78bdb64998abcae",
    "reproduce-paper":
        "5f6d37c56e72a574318ae044ae6072c984cf51ff1b92943630139e5665d5ca25",
    "reproduce-paper --cases I,IV --format json":
        "f318998caf19b1a4782be87f7fda790ebda44a359a24d211a2f66ac5628a5e84",
    "reproduce-paper --cases VI,III --format json":
        "40d5508b76e999ec54c56bd75053e25d4e7c0c11d0ddbdcd074d32e5b3f567d5",
    "export-figures":
        "ab83d9ce3ec691b4e5b352ac1f908f6befafb23b17b3e6f0a32d098a95bb4bc8",
}

# run --algo <policy> --workload case:<case> --format json
RUN_DIGESTS = {
    ("I", "rr"):
        "24200dea34b72ccb8086a700d66d7692cdd63f24b5013f35ce8edbf23961fdc9",
    ("I", "dqrrr"):
        "cb3f8ce1a4f5e993170e90821a485d234cfadc5df8c85183ff5b1d126e7d4f49",
    ("I", "irrvq"):
        "3f5b6e30e45b4432654c561bd2cd49b469bd2cebb14397147ee49504b2148938",
    ("I", "sarr"):
        "fbe76739373264576b42611e5b71ee5d4507bb0d1609bd7fdfd8d2b85d40d2bb",
    ("I", "rp5"):
        "ee51d16b86ae962d3ad77779f67142265f681a3bc204eb12c9788a26ba8ef7ee",
    ("I", "mrr"):
        "b628461c7023e1e727f70f96a1eeffb1a6958220c79626ddcc82eae9d42b22ca",
    ("I", "dabrr"):
        "e9d45e7efe5e506142d98f899922d01d15ac611a082834fb6feaad1af3349501",
    ("II", "rr"):
        "f72819b54d010308fb2d4f01d011e64ce7ca90c54d1107016fa9e7860fe97fc1",
    ("II", "dqrrr"):
        "d4dca87187a1a9c10478f932f91390dcc0e7c356492574d0cb6b3083f1e420e2",
    ("II", "irrvq"):
        "79ec9f9da463cd2851a884a4b86e811f71cf4c10cb3527f2ddc93f5e30c71c1c",
    ("II", "sarr"):
        "c03264e6b749871b1bec7629600661db618277d4117caad1ed006b7d3f715632",
    ("II", "rp5"):
        "f82d6139cc3d55987fd27bd12a16f04c93314e71d6b61b78dc9e7d9e906cdb0a",
    ("II", "mrr"):
        "68f92baf3f42e846e7d641a1fd8851650a12b7695d03d4d6d73649abfa766aa9",
    ("II", "dabrr"):
        "52b60ef0301ac17b67e0a38fd21c822b1787ec8bf2e109e8ef994ee857cf9cd1",
    ("III", "rr"):
        "aeba2caa4b03ecaf929f18b99a24832a3f6440f0b1b38046d20444bffa72bc5a",
    ("III", "dqrrr"):
        "d85fe9eb4e1b5870968850de12c39896d54b35a4874130b9bb5114fd17137749",
    ("III", "irrvq"):
        "31156edccef3b7c29dbc050fc13121bf249ea6b9b88a049f081cbc1fe2403e0f",
    ("III", "sarr"):
        "8c627daf46f972d2f9e337138bb9b01386e47d05259ad2855646f62b8b4080fe",
    ("III", "rp5"):
        "2a68b11b95c26be9fbbe03147ced385ff4118ea2b233535fe9f55b7215ff303e",
    ("III", "mrr"):
        "d56297ef9d97887dcd4b121243495699ac594e6a7647ff82fffffe9ce0767313",
    ("III", "dabrr"):
        "30a2a315c7d4a7f92a8125f3e3bfa5a1d4420b625d2a6c106d4d204aebb139da",
    ("IV", "rr"):
        "3552c39d1d8c02c60d0d3bed725dc96305bc0220d210d068a88299515cffc4e6",
    ("IV", "dqrrr"):
        "85c32045f1f448b822d5cfbc8c7b8cc80bcadf9b8b800daf5fa17993ba430d4b",
    ("IV", "irrvq"):
        "f680cc5b852e28551bff5eb68bc8dfdb808255c9b1214257010c3bd9bf687c5f",
    ("IV", "sarr"):
        "fa00ea980a51139790809505585eaaedb2f1db363d535b591e4562d8cfb8680b",
    ("IV", "rp5"):
        "ecfba6d7ca69315b47bac6a92fa64d68f7c4ef58678a129037952894db56b1d1",
    ("IV", "mrr"):
        "df97de587532c4bcd04486b9cb45148cc5fe117779a93dca60b5aa0d07da8b84",
    ("IV", "dabrr"):
        "78cc5dcb2781d07be8f032f0ab4db31b330390e0372bdbc1432f70fa65623bc9",
    ("V", "rr"):
        "861dd1e7add4a21f77402ca24200aca7aef267942e60e85bcdcc24e88ef6c02b",
    ("V", "dqrrr"):
        "db26248cec52499ae36b010e08edeb520278f4c95742ed4722b750e17f89ba81",
    ("V", "irrvq"):
        "0cdafad552c5defdf5615e2792bc6a95d39d943f2208d009094b68f41ca99d0b",
    ("V", "sarr"):
        "2a142295440917d2878469464b81f4b23ac106eb9bc4aa126a6f15f15e349074",
    ("V", "rp5"):
        "2c452b2c341ec62fe8a9133404c95df895898cf8f2ad2e6d951105c02bfc568f",
    ("V", "mrr"):
        "b1bab920801cc6663cc63d9cc36b48510158db42836820e16dbbc13b7922b932",
    ("V", "dabrr"):
        "99f705f465748dc3dc33de82cb34c83f444548de8fcef499106b58401084acbf",
    ("VI", "rr"):
        "e11cb1eda433190a8fedb03dc5abd7edb62eff9508c13095a692aef21304a04e",
    ("VI", "dqrrr"):
        "d971e3330b94484d5767f03555c329f0f0f6442b16dfc69d8d46bb2f5e837ce0",
    ("VI", "irrvq"):
        "76d8061b644ce906cb0744f1f29b3107f6c7014d8b0aeeedd0fd1d45262963a8",
    ("VI", "sarr"):
        "69d33ca859ac9f7b65603d33a57aede0bdca2a575b1d770018b727006363be8a",
    ("VI", "rp5"):
        "82a136894a6f07dab08de134fe690c5136e7c6a18a7d26066230ddb534fa7b85",
    ("VI", "mrr"):
        "e18bbc0ad5714ff10acc7970c92f7d5ef041d9c5c52f4575c9cd2580945bc23c",
    ("VI", "dabrr"):
        "7c568bfb4551f21201617c5c22b8fdb0a6244b8cbe93e65acbf888b79cbf6dff",
    ("ILL", "rr"):
        "42c8e82225a21e950ac336ef6d1f3c2ea50c38ebbb296662d9dfbed542cee12a",
    ("ILL", "dqrrr"):
        "6694b1d90e17873c4c3808347abdfe6aa1400493990dddbc4dec430e6ad17692",
    ("ILL", "irrvq"):
        "c2a169814ee96b7947fff42f5a62a748ba9956afe5b8666696abc51d8af17698",
    ("ILL", "sarr"):
        "8e549b5d875b71acf7c9d7a19058922fb8af0263d5748b5502a759bb4e900e8d",
    ("ILL", "rp5"):
        "b3db15201dfa4fa5cf9c65b786ab26a6446fa42d77a4997e0125b75adff0262c",
    ("ILL", "mrr"):
        "2fdef2c50a182eb7049465c8043b30c8adab4f0e6072672ef3a1f5e36e2816e2",
    ("ILL", "dabrr"):
        "8f2fe84878120beed54c9f46e7856e041ab31994936222843ba0e9ec1ab7dc05",
}


# run --algo <policy> --workload case:<case> <options>
RUN_OUTPUT_DIGESTS = {
    ("I", "rr", "--format text"):
        "14a633429707a347fcb87d7436092e9634aa5fa01df2b2b6857f5cda17188230",
    ("I", "rr", "--format csv"):
        "6679117e9a8fdfb6f04fbbfcee4c7abe6ad2bcff9d599a51d7abb8a07c55278d",
    ("I", "rr", "--gantt"):
        "a51cd836a8f44b7c60d1eb814de33b8f78736e114347c597c455ff9864bb439c",
    ("I", "dqrrr", "--format text"):
        "919bfe97ffd52515b9c486ecfecb58053b7c36726133661629c9d6f0d2a5af8a",
    ("I", "dqrrr", "--format csv"):
        "d07527ef2a8b6a2601905c0116d7039dd5ab58ec517379aafeff174007b28438",
    ("I", "dqrrr", "--gantt"):
        "c98bced76647d4b1763ddca2089db1d500eefc157e10112684535a8caa9c7fab",
    ("I", "irrvq", "--format text"):
        "5888483a3c645d1601c719c3d94e5cee7a5ff3ee55edec566bd6efa9394a202b",
    ("I", "irrvq", "--format csv"):
        "4ab98f158bd19f90317395dbb466cdc4a515733547c2aba3d9cc2adecbe01d89",
    ("I", "irrvq", "--gantt"):
        "be6a94f63d8a1a04ac22f5b2b1e22c8846a8b1ed648db79d10f932bc1a124a21",
    ("I", "sarr", "--format text"):
        "bf6d796223356ef2462a2caa19d20ace32a34160046be19a2c0f37533436318f",
    ("I", "sarr", "--format csv"):
        "0d952babe1e454281c69ba92f66ba317efdd29f77978f7ec61afde0a559f0ad4",
    ("I", "sarr", "--gantt"):
        "e0b2641985dbb36bcf78aa7b58246e8e147cc95e9f87872c80ea0d64e8691d33",
    ("I", "rp5", "--format text"):
        "a5b487bfc89573bad2c9c2930a32be74f20241a2368da464fc257ad3ca584ffa",
    ("I", "rp5", "--format csv"):
        "6cfc04baee7074de3df864fb39cf6337b5248ccb4ef6fffdbd201b80e2cf1743",
    ("I", "rp5", "--gantt"):
        "1ad3a0cf924379f0881b176a0c95c397f19e44e0010efa0261ad5fb4d752ca07",
    ("I", "mrr", "--format text"):
        "f0aaaf0bcfa8c21d6d2baf78e98bc612bc0d2955641699fa1522756dd421c7f3",
    ("I", "mrr", "--format csv"):
        "e78fde25d43ab8fe0d7e4c64bfeb045849cc33f391c07457fd236f97c7f46aa7",
    ("I", "mrr", "--gantt"):
        "d7f9fa57299b1ab4a94608acce4cdf3d2b0be978f7cf9bf95ebcc6147e624849",
    ("I", "dabrr", "--format text"):
        "a96d8c86a0f17b92fda0d7f7e9109eafaa0a4e30fa1cb0d3a7e92b64917f85ad",
    ("I", "dabrr", "--format csv"):
        "bd10cc0a7a9721619e1bec0e9d3c38902696020d8ed34e493e8662348037f1dd",
    ("I", "dabrr", "--gantt"):
        "7530dfcaa32817a475a0033bd3f7fb081307e12aec9bcef0a01bcdea65e55714",
    ("II", "rr", "--format text"):
        "a6597b9ea07b1666ddc51ebb90673ce98cf3d20ac501cbe0524856fe8d8cc89c",
    ("II", "rr", "--format csv"):
        "f14118d200bbb0ee0f396d8c551e3728eb8f6d729a4afa7ab3b6c51cd9ea752e",
    ("II", "rr", "--gantt"):
        "729339c1dd034ff6f4e7ff45570408724ddefba3c82b67977abbcf477d19c5e8",
    ("II", "dqrrr", "--format text"):
        "75387cda1193d4246b4cfff6a424c48009525de30ca9fe6dea805dd5b1f7fb66",
    ("II", "dqrrr", "--format csv"):
        "91159f25f70568e94a22399b0b5080d104608763beb427b3fda74a9973027a70",
    ("II", "dqrrr", "--gantt"):
        "cacac98ab9111a61bbfb14a551403fbd270d4e2fa4b67e02be8944a8cf3fdd01",
    ("II", "irrvq", "--format text"):
        "56e991246a5180c0ef838285cbe4fea4d4d93ebd0b45f570d079fa8f5154cb91",
    ("II", "irrvq", "--format csv"):
        "e1b5b62abe656009774278efde5d6923f741c797f208630ac2e92929b414f46f",
    ("II", "irrvq", "--gantt"):
        "e7e2773f09b10fbd935b680df642baf0ebf91650aa3a010279cf6178674d072a",
    ("II", "sarr", "--format text"):
        "a7c6e684a9e3ab20387f8b2918ba21217ce750eb84b8609eda73b7b5775f4c99",
    ("II", "sarr", "--format csv"):
        "a809af008200b584455eca45c31edd96d6db88337247f79c01dbb4379b0164ba",
    ("II", "sarr", "--gantt"):
        "5661395de06113c823c7c256d49e937a76269f59d1b24f897e10c986b86579eb",
    ("II", "rp5", "--format text"):
        "06b6e4c9ed0bd5578f278a71527dffa97be204ca800dbfea616b829fc6cc03a7",
    ("II", "rp5", "--format csv"):
        "5f035481258a96b0c8448b15c0ed5dfffc499fbf8c442dbf06b12f9999729e62",
    ("II", "rp5", "--gantt"):
        "fefd2a1450ae6bb211831bd4f6cddb63ffb78aa14493d29afeca4913a0a7174b",
    ("II", "mrr", "--format text"):
        "17fb8c6c6eae00f579ce90ed3fcfaf900deae13f64fd8d7239ac8171c71c7cc5",
    ("II", "mrr", "--format csv"):
        "48a888a2b71f3430abfda4af2ac7854334431e0bc63d99fc235726060e7d4f29",
    ("II", "mrr", "--gantt"):
        "3c1293eb00ef85460ee959e3bf83715be24825c07cb6cf37d832cdf2f2d8db37",
    ("II", "dabrr", "--format text"):
        "5ace72633829f08ac50f199725d61bc2d2ebe68b79176bf29cdcb6b927813e16",
    ("II", "dabrr", "--format csv"):
        "8ae85f46f6b03dba194f936cedceb2db02b57405406c7efc0bd06e015c8dd439",
    ("II", "dabrr", "--gantt"):
        "ed2468ee91d6a047b2139cdfae99d3ab365b6abac260c267d08b7af5fe0a5f52",
    ("III", "rr", "--format text"):
        "1b129d9e6ea34b03e87c3ac87305b9bfbf62d5f38ed35ef171b7bdc385f9badb",
    ("III", "rr", "--format csv"):
        "4aa679e44ac6336a9cc31e46800999231f38c14da1893802d813f957c14d8a26",
    ("III", "rr", "--gantt"):
        "67b9536d0efa10ef2972a3a280418b3721045d503413d179a683bdb3c724e7e5",
    ("III", "dqrrr", "--format text"):
        "3a103d776defbb2f13c222e69f29c277fc8861bf132fe362fd89ac5c3c5970dd",
    ("III", "dqrrr", "--format csv"):
        "d3ea7ac53891d1fa30efc2b97cd1b13acb687cbeb3aae7e32d87a4dff1e4b6c0",
    ("III", "dqrrr", "--gantt"):
        "9b3a12822f22a9c483e0862b34166cd78e84adb430e5314d13e940d6063bc44a",
    ("III", "irrvq", "--format text"):
        "37eb60d4297ba66eec25a07c2f9e662c00eabe6282020eb87a947dc3bc1e2e74",
    ("III", "irrvq", "--format csv"):
        "636d670458cb6b804ba2f8c00c2f64cd514a9ed535ab736b77237e939345b38f",
    ("III", "irrvq", "--gantt"):
        "28169faf941964985123e4c1d552382589c8df3d944eccafe72d4fab087a7902",
    ("III", "sarr", "--format text"):
        "54872dfdf28f64c2d8eb150d83f368c3ff21a997f61bee0ec5af4a2afd6a7eb6",
    ("III", "sarr", "--format csv"):
        "806de64ea4d758f76a879e38e12b868e6ca9aa32cab448332334fda9d292a589",
    ("III", "sarr", "--gantt"):
        "f7134fa540191eebfa6c46ed5c57fc542f083b878b1c396d2aca2fb60795852f",
    ("III", "rp5", "--format text"):
        "9d2a1819aa58045ac530f04c559b20302befa1e67650fe833a1cc90f8a3733c7",
    ("III", "rp5", "--format csv"):
        "9fde4a9ea4cffd7303cec76bc54114f6b1ac93079a30058bf21833834a2d50a4",
    ("III", "rp5", "--gantt"):
        "351073f9858170daad4e87e922a8bf2f2d1f88dd3167104ad1032bdc3339f8c4",
    ("III", "mrr", "--format text"):
        "05546651b12aa0b6c52929e61c66b1dfe68ef9c766a9322e72439e65623a7140",
    ("III", "mrr", "--format csv"):
        "547659451035125da461fa84fc70be6c305327c974416db8e341e049b7c00220",
    ("III", "mrr", "--gantt"):
        "d19f90a2090d2cdbd5a9fa7003a4f8f64144036ece29151fac078b0a1cff2ad5",
    ("III", "dabrr", "--format text"):
        "4f33b2d2a38146d20f253b7d706594616d6213af99c02798742038f7d52e410e",
    ("III", "dabrr", "--format csv"):
        "426923a06188caf9b8a49d424c19c19d8c4b196ff06bf96b7793874b9d959c33",
    ("III", "dabrr", "--gantt"):
        "a519de939b33e4a6a2cae03c992a1317c666edf8bdd15274446e1612afd619de",
    ("IV", "rr", "--format text"):
        "8da71d8ee3b5afd24911f0039ced1d823ca1895de2222a7fee44163b021aa77b",
    ("IV", "rr", "--format csv"):
        "1a82c450f78649f050024fc372801893550578e65e71af3a9916a32f08839561",
    ("IV", "rr", "--gantt"):
        "799b609b2d1add4f1d3df798ce9c5152444eda996bce2961ccf61ccd0c1d32b9",
    ("IV", "dqrrr", "--format text"):
        "2563c0ca43cbe91e506d6a286e863cf1ec7dd218ec3f15f2ed1b11d74dc85b3f",
    ("IV", "dqrrr", "--format csv"):
        "ab7f1e9cf204170907973eca0184017c12f17d705b3d10c18b5fdc4b61d1a766",
    ("IV", "dqrrr", "--gantt"):
        "30ba9b45bdadad07543a56a3e856d2cd5f7c6c289c99f6317407ec296649a61d",
    ("IV", "irrvq", "--format text"):
        "924c91072f0ac0953854e2014cd64a36ba398697706f73ccd836647a86f5abf2",
    ("IV", "irrvq", "--format csv"):
        "3bd0f3992e1daa8831dfaa9eb6d96576e80d7a054f320767f7f46c5a0bd7a9de",
    ("IV", "irrvq", "--gantt"):
        "dc8551f63a0384aa1293d3df102d71353cac5df032872b1a912eb39bd5b9022b",
    ("IV", "sarr", "--format text"):
        "9256dd319796bfa29d2fd09f0c90b73d3cdd7af9040157c4cb3b08cd3a79920f",
    ("IV", "sarr", "--format csv"):
        "4dca81c00d09277ec37a0775811f5b7bdc172f7842193cb2af9371de57496460",
    ("IV", "sarr", "--gantt"):
        "5fb05dab4418ac6338d3a8789be27f4596fc9ace79a088ff8ef3dd3582ff3a71",
    ("IV", "rp5", "--format text"):
        "1694df6a56bd3d1bfba418812941f16ae3ee586aa205786ad235c9796425bfb4",
    ("IV", "rp5", "--format csv"):
        "d53332461af2f54ff47e46698cb7e9d999f643c19151cea4079ce4b0d5abc86b",
    ("IV", "rp5", "--gantt"):
        "c2cccbbdbef7486a73558c10056d8b5293311d67bff46c30d7e24fce31545eb0",
    ("IV", "mrr", "--format text"):
        "4c6bc25cdbacf153a0c0443138bfd1f3d532ffdd650d62c6d14b750531beaee0",
    ("IV", "mrr", "--format csv"):
        "bdb1c1c80f6ca3a969798b45e15871247523379b6da1e98963d6c15a4a61338c",
    ("IV", "mrr", "--gantt"):
        "a5687ef540262489d2ff2f30803d211a61a1cf49e244d9152b68ca84eb1de88d",
    ("IV", "dabrr", "--format text"):
        "5a20a90e69fd6dc166be7e2cd721d63e1c6290329e8b2a729d07f3c6c6ef6ffb",
    ("IV", "dabrr", "--format csv"):
        "07eea86733dda3f53cf39bc77b841a16d78ff43fb50f2c635d2c836500f8821d",
    ("IV", "dabrr", "--gantt"):
        "dd4f7574a3e5b52ac9a0e4ce84df29756d29043d0fee4c0aeb206e13966a65fa",
    ("V", "rr", "--format text"):
        "9b71c32f1be564c87e8fa74f19d33fc7df043bee6b3b392ad706de8c5c52f7b9",
    ("V", "rr", "--format csv"):
        "22eb74db78fbe6aa4fea006949b80939fdc9cccd09a47aa99e3546dca843941d",
    ("V", "rr", "--gantt"):
        "d457cac68b3b7799cbd898c58db0f04a3aa4ea77a40dce661a75a3968bdb2a2b",
    ("V", "dqrrr", "--format text"):
        "d6863dff2db1d6e45a3a783ec52e3337f6d5264c6797e33cea106aa07bb79b32",
    ("V", "dqrrr", "--format csv"):
        "f1d571f07d4c6c7d3afa8fbea368f0ccf635ab80a6c33c5b1db75e7344f8c0c5",
    ("V", "dqrrr", "--gantt"):
        "ccc624fc04b7431085e07ebefb579a5f6ab24fece99669e286c0cae7c388d446",
    ("V", "irrvq", "--format text"):
        "917d8b02f1068a5ff140eb053ca67f3dc64c2bd5cfcf6972e41b9f25d4022875",
    ("V", "irrvq", "--format csv"):
        "862072e00f6117cb1e4530fec1af3f041e0ba259bea8578d276d5dc306bd9383",
    ("V", "irrvq", "--gantt"):
        "dbc38e70ab33877e87ccea6bc488559b681e5d3ac73bed0be84f9c2b009569b9",
    ("V", "sarr", "--format text"):
        "a2abcae5f28d258596c9d8ebdd19defb47c5b20d60636d1249921b1fddb1240b",
    ("V", "sarr", "--format csv"):
        "340419d73da7dc9df9627054fd4f003f70c2ead21e62b9ea7f8d4b92dfa61188",
    ("V", "sarr", "--gantt"):
        "62309f80d4af750eb6b3af1c76d40fd9e4285cf1ce8c7d0731c5bf5dcdd1e644",
    ("V", "rp5", "--format text"):
        "8197d31bbeefe87b1c471af1d8c0e95a770268554e41f6e414174efced016c56",
    ("V", "rp5", "--format csv"):
        "54e20ec4bb64d07f1489ad90313ac0e351f52a71cf3c92a10de7df6509e97936",
    ("V", "rp5", "--gantt"):
        "89f1e5db091a6ca1b0ac587194091e97f1949065c5824313f272ba1e4dcbde32",
    ("V", "mrr", "--format text"):
        "eb3ea8d636d9cdf3776d0604e88896c70c0732f1d6f30cb1d15766ed32c19344",
    ("V", "mrr", "--format csv"):
        "4513100a05af17139c4fca2ded5f7c637945653bfcf25da67e5b329d871aa978",
    ("V", "mrr", "--gantt"):
        "71188840a5807cb42d7c90890490c3c8fba22b30ca48293fdd098c842ddfb437",
    ("V", "dabrr", "--format text"):
        "53b5937d2d995539919fcc1de635ae4704eb5104803f88b78bd66fa8dd7141a8",
    ("V", "dabrr", "--format csv"):
        "6e48955bbe744302d30d21ce41a6fdabbd083051882ab81dba9f311aa4b088e0",
    ("V", "dabrr", "--gantt"):
        "0b6c2020e34a448a3ab49ddfa0c46ea769df10a35c38a1900863c2b063469a75",
    ("VI", "rr", "--format text"):
        "8a6edf834d6e6ce7e47dc0548039b4fd01df2ff01c0221f67452af4094dccbc6",
    ("VI", "rr", "--format csv"):
        "b8c3d555a2a8fdafbb5119c9e8d062e03ea65358d179426e17c9490f0ac9adfa",
    ("VI", "rr", "--gantt"):
        "19399e03584b2c1209a5a6affedfd56ca3cb74d65add0cf8af669966254172a6",
    ("VI", "dqrrr", "--format text"):
        "2712fc7a62f1419e279e76099547ac36cff9df40a42c61147fba25c061b4f780",
    ("VI", "dqrrr", "--format csv"):
        "2bc39494371225d14606e4712f4b3695afabd2660d9ea3c36d19da85c826c592",
    ("VI", "dqrrr", "--gantt"):
        "12460e9ee99bbaeb734cce01980dedcffa8ec0ea274ed65e2ec952f59945230c",
    ("VI", "irrvq", "--format text"):
        "4902020deb96ce8a3a3da0c00fd357055435757cdaf5408347732985c06a7697",
    ("VI", "irrvq", "--format csv"):
        "2ddc5e92c5b0314957dbe3e2bb899232a4e31e016d0ddda3b7a5b37dec67e7c1",
    ("VI", "irrvq", "--gantt"):
        "078423c9c4ae7f3093170c040efb07d6c2d2d6df4b82dd526167c789c6fbfd3a",
    ("VI", "sarr", "--format text"):
        "683c471cf82e7f3ebf9ebdc495e4618ae5dc3a564042705d0fd93b9b940b6062",
    ("VI", "sarr", "--format csv"):
        "2fea2225407a4134d034d8b1c3542bd60951109c0dd795313176750368173950",
    ("VI", "sarr", "--gantt"):
        "047bcd5e25211f70c4e0089deceb601ee10deab9ab178e13141e8dbcfb389e43",
    ("VI", "rp5", "--format text"):
        "19a9f6f5cddfc5c7cbbc9d4fa92cb15c02768d5644068c7e55a821f77d4baa87",
    ("VI", "rp5", "--format csv"):
        "79d191482e0b2c9440bd343471aee156fff458f3c3bd33ac1e85c8c4b2b770ba",
    ("VI", "rp5", "--gantt"):
        "da9d7f092bfb3460f4d48b92dccffc823554853f6382e2a2ba94abf0cc6b9091",
    ("VI", "mrr", "--format text"):
        "fa13e376db8a3ff2a52244e61b69e81d06c00b510d5ae3ff0dd25bb91ab8910f",
    ("VI", "mrr", "--format csv"):
        "9b519ad751898168ae13afc5137d2b7a5de7cafc47c97f201f4d3f0eaeeb75e4",
    ("VI", "mrr", "--gantt"):
        "ae4862b1f347e48754a040f2e168f3a8af3bb625502948b9be0f36d12001a492",
    ("VI", "dabrr", "--format text"):
        "a3a8177084c44a479c835e14c97b6ccd3c4851afe173d65dc372889c93a58d7c",
    ("VI", "dabrr", "--format csv"):
        "d3a89cf306cecd622937c731280e2b60fffc9548a98b672726f51197627550a0",
    ("VI", "dabrr", "--gantt"):
        "4433785aa58c733475ce39006af7181bc799e8a5b74202cd6c161c0c18a82f07",
    ("ILL", "rr", "--format text"):
        "af8b09aef1cea75c68ea43749ff97c553e43177a61770d987956d0e92c2992b4",
    ("ILL", "rr", "--format csv"):
        "336585a49c447a4e3712e30f13c1bf5e0ea8378ca51b66b6d37dca3bb1a0f2ad",
    ("ILL", "rr", "--gantt"):
        "8d6212160de6f4cbe18a6cfbb3bf7aefb122480f94465a9bc4daab6478d7a247",
    ("ILL", "dqrrr", "--format text"):
        "b15b484c2ec6616031a5195ec5b2f9324d65a5fbe5f70a2ffe31737eb7efb2c4",
    ("ILL", "dqrrr", "--format csv"):
        "e2fbdb4beafbeff08a474d7baad859d6d751cd30e354e99e3b0ffdebf047e89d",
    ("ILL", "dqrrr", "--gantt"):
        "86843da27fc2f812bda3433184b887291f33783440d40bc816115180c1515861",
    ("ILL", "irrvq", "--format text"):
        "27de0b61f03bce6784d3a3a907a826682a7aa0207581410b7bf97cc90f6c02a0",
    ("ILL", "irrvq", "--format csv"):
        "9bb2a203deaec38bae4f6e0c9626f41932102254f6afd7de661db97ea54c0f8c",
    ("ILL", "irrvq", "--gantt"):
        "95964b7cc5ded5df730f01e521dd85ce41e4b718238d2af0745b0d92ce5f8cb1",
    ("ILL", "sarr", "--format text"):
        "70a62b0221ee31e0193efbc4d3319b0d1f68ea3265334ddd92032ad65d574163",
    ("ILL", "sarr", "--format csv"):
        "1a600d03ec9b725e84580f512e2b0f16379a8853c5c92f86f65651c6790d6b7e",
    ("ILL", "sarr", "--gantt"):
        "c876fe0a4d0897dd9a20a6cf811016c6a89a16dd0d2249721fd1ca466a073c96",
    ("ILL", "rp5", "--format text"):
        "ca16f634c98bf3c1e338243ebd23c7ddb4086fd46d039158a80a12200337d31c",
    ("ILL", "rp5", "--format csv"):
        "c9b6dcfad4dc69bc32c60af767ab7cd392e7f74888ec095fc4e3af84ff5a2c44",
    ("ILL", "rp5", "--gantt"):
        "fb15c4b0176abf311938d2c23223e8b3feab4154c1b1fb100c303d530867f5e2",
    ("ILL", "mrr", "--format text"):
        "7ee0071bcc30f4db00447603b4e38fbbab1312cfc778660a7b8b3dfe90a86c36",
    ("ILL", "mrr", "--format csv"):
        "527e4d2b2841a205522347b690175d60a96154b0a5671f59f15dedf02ce5b8d0",
    ("ILL", "mrr", "--gantt"):
        "8a5d772718d2e417d534d74906fa61bf8081972458788bd6ce14770af3bbe00f",
    ("ILL", "dabrr", "--format text"):
        "4a2c9affaf6cec9583cb6ea0f03dbb02e8eb4c329e2b1f2fc5f87ac5039c9dcd",
    ("ILL", "dabrr", "--format csv"):
        "1f137682925c2ba3084f73f729b156f377a77b99e03c2d451bb2361402565b35",
    ("ILL", "dabrr", "--gantt"):
        "d2e735ce3f2a0e1ee26dfaec5959f46bbb7b1f4269c471f51dee695c4f0610d0",
}

COMPARE_DIGESTS = {
    "compare --workload case:I --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "60d6076c570350dd24636ae0f55e933df8805c1f28023b11c16e3991bf226cfb",
    "compare --workload case:II --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "9cf0961fb0aefef9d95144b54e44fa919eef29180db5cd6a3220531959722b59",
    "compare --workload case:III --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "a453d41fbf474d19b6b099b0724a085f5d2bbdef7fef84406bf1bf3344cfb7b0",
    "compare --workload case:IV --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "53e688d3b0c0e8d08e09c58da67d84104281c9eada98e61472e983083843abdc",
    "compare --workload case:V --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "77d455d75a24c2c1bf857fe53f8629339c0dba58e200d9898f5be1aa9af4fbb4",
    "compare --workload case:VI --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "ac3d3ffaa51f8c32b23610aa78d9e0c3c79db6282ade85ec314556085cefb4dc",
    "compare --workload case:ILL --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr":
        "22923cd10907e90f45afb31b8e9e58e3f95db842b65005a90592e907c67f4d30",
    "compare --workload case:III --algos rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr --baseline dabrr":
        "000164cd4fa7efff2208abbe1cadb25bb9e55199f8cdbf6a2c8e39560e6f2540",
    "compare --workload case:ILL --algos rr,sarr --baseline irrvq":
        "6ca70b364df55f4258ad6cb0377e4d9a44a312ff422d2c4b5a9c77b0878ad547",
}

# run --algo <policy> --workload <ESCAPES_WORKLOAD as JSON> --format json: pids
# and a label that the JSON writer must escape or spell as \\u sequences.
ESCAPES_PIDS = ("P\u00e9", 'say "hi"', "back\\slash", "tab\there", "bell\x07",
                "\u65e5\u672c", "\U0001f600", "del\x7f", "nbsp\u00a0x", "slash/")
ESCAPES_LABEL = "charge \u00e9t\u00e9 \u2013 \u2603"
ESCAPES_DIGESTS = {
    "rr":
        "3767c7e950da0ba905715be312c18ee261ac40f99f7820a4d267fffafe2498fa",
    "dqrrr":
        "9e50ff69e98afa1914d9a4aae17edf8ef19f48542a1d630aef36422b0937fc08",
    "irrvq":
        "0fc0380f757de1b408f010d25dde26eb6068bccfbdbaec2d0ccede54e2f85871",
    "sarr":
        "a93fb0d4543ec0148cccf3473661b7cffa2ee862d4dc91927d36b7eed5b1e00c",
    "rp5":
        "44b0f36942200815119165eb189e472cb42fd19aa0398ec4e478ba74f97c283c",
    "mrr":
        "68b53b9a7b0712808a97155408799604f0f0a9ce80ee759f01de742522f46af4",
    "dabrr":
        "3a5c683ae336bbff0bbe8e3666fade5ba6434cec11476947b97f9481795f68ee",
}


def _escapes_workload_file(tmp_path):
    generated = generate_workload(GeneratorSpec(n=len(ESCAPES_PIDS), burst_min=1,
                                                burst_max=60, arrival=STAGGERED,
                                                max_gap=15, seed=7))
    payload = {"label": ESCAPES_LABEL, "processes": [
        {"pid": pid, "arrival_ms": p.arrival, "burst_ms": p.burst}
        for pid, p in zip(ESCAPES_PIDS, generated.processes)]}
    path = tmp_path / "escapes.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _stdout_digest(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    assert status == 0
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_output_is_byte_identical(command):
    assert _stdout_digest(command.split()) == COMMAND_DIGESTS[command]


@pytest.mark.parametrize("case_id,policy", sorted(RUN_DIGESTS))
def test_run_json_is_byte_identical(case_id, policy):
    argv = ["run", "--algo", policy, "--workload", f"case:{case_id}", "--format", "json"]
    assert _stdout_digest(argv) == RUN_DIGESTS[case_id, policy]


@pytest.mark.parametrize("case_id,policy,options", sorted(RUN_OUTPUT_DIGESTS))
def test_run_output_is_byte_identical(case_id, policy, options):
    argv = ["run", "--algo", policy, "--workload", f"case:{case_id}", *options.split()]
    assert _stdout_digest(argv) == RUN_OUTPUT_DIGESTS[case_id, policy, options]


@pytest.mark.parametrize("command", sorted(COMPARE_DIGESTS))
def test_compare_table_is_byte_identical(command):
    assert _stdout_digest(command.split()) == COMPARE_DIGESTS[command]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_run_json_with_escaped_pids_is_byte_identical(policy, tmp_path):
    path = _escapes_workload_file(tmp_path)
    argv = ["run", "--algo", policy.lower(), "--workload", str(path), "--format", "json"]
    assert _stdout_digest(argv) == ESCAPES_DIGESTS[policy.lower()]
