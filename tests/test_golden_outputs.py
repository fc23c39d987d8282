"""Byte-identity guard for the golden outputs.

Each command's stdout is hashed with SHA-256 and compared with the digest
recorded before the aggregation refactor, so any change to a byte of the
reproduction report, the figure CSV or a ``run --format json`` payload
fails here and names the command.
"""
import contextlib
import hashlib
import io

import pytest

from rrsim.cli import main

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
