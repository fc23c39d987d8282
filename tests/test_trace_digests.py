"""Full-trace guard: every slice, idle gap and quantum-log entry.

The golden-output and oracle tests pin completions and rendered bytes;
this one pins the trace itself, including each slice's cycle number and
quantum, which no rendered output shows in full.  Each digest is the
SHA-256 of the ``repr`` of a canonical tuple form of the traces of one
policy over one source, recorded before the engine's two dispatch loops
were merged into one.
"""
import hashlib

import pytest
from conftest import seeded_workload

from rrsim import simulate
from rrsim.policies import POLICY_NAMES, standard_policy
from rrsim.workloads import CASE_IDS, benchmark_case

SEEDS = "seeds 0..199"
SOURCES = CASE_IDS + ("ILL", SEEDS)


def _canonical(trace):
    return (
        tuple((s.pid, s.start, s.end, s.cycle, s.quantum_in_effect, s.termination)
              for s in trace.slices),
        tuple((g.start, g.end) for g in trace.idles),
        trace.quantum_log,
    )


def _workloads(source):
    if source == SEEDS:
        return [seeded_workload(seed) for seed in range(200)]
    return [benchmark_case(source)]


def _digest(source, name):
    policy = standard_policy(name)
    traces = tuple(_canonical(simulate(w, policy)) for w in _workloads(source))
    return hashlib.sha256(repr(traces).encode("utf-8")).hexdigest()


TRACE_DIGESTS = {
    ("I", "RR"):
        "dbcad7b26d94b758f4bf6dd32cde2b98656e583b8404e61ab40b036a2db53079",
    ("I", "DQRRR"):
        "ea86e1d8cdbcace5f763463b004d9b3bd7993572ae01e15662eed59104fcbe65",
    ("I", "IRRVQ"):
        "c30a3777c8388f05dcee22ee5c13e72e777e799845ad3c67f923577134be115f",
    ("I", "SARR"):
        "5373d624e1745b50ca173df670dbced4fc5e4406dd1bafd09ab431763b2cc950",
    ("I", "RP5"):
        "8f681ced38ba7e23d36930abc950d9c5c4a40c3582e448ba2b48c7280afc62e8",
    ("I", "MRR"):
        "5ee1c5afec4b1579ba65c59abd37799f7b65605aa5b21ad75bea403c9d9e3520",
    ("I", "DABRR"):
        "3db1a7be2d584f8431870b1b2f36c7f0282a4a545df8eab309f7a004f2121058",
    ("II", "RR"):
        "cd926855979affbe81d65791f09c1749e487c82bd1957edc34037bc3600da931",
    ("II", "DQRRR"):
        "e27103814ff3900945cd715752248faae1294ec5b2b15fdf56dd71bc0cf9c39b",
    ("II", "IRRVQ"):
        "4a54e71d7fa18a60bb3f4c23e5a50239ff491f5ab96d5c75f97df6addeeb2e5b",
    ("II", "SARR"):
        "4e976e2108e725a78469129b6020661f7bf0a6af20d58df4bfc0af0ab3ccce01",
    ("II", "RP5"):
        "1ac2698cc321c1c056d193d80b2d055b4e684b48c7ef5ecfed1d90d21e233b10",
    ("II", "MRR"):
        "35b6ba3baf111e136dbf414b41c2d19a3550b0cb83143676513f52bcd40f20e8",
    ("II", "DABRR"):
        "4896ee07a25f41a0824b6a1075a54d654976be758fe8b56632718e107ff93d59",
    ("III", "RR"):
        "ef34db2a0f9252f6c15e5858948c9dce9e5651a7f033953423dd0bb33827b1a2",
    ("III", "DQRRR"):
        "b66f18d7489e2b7c430ff5239b7df2bfb9bb1864e19f7710db4fe6a1dd5f7162",
    ("III", "IRRVQ"):
        "53d0fa1cde7c8377a92386b29bdbd3a451b928d883179a4274d92efc3aee4f46",
    ("III", "SARR"):
        "ab065f8992f9619e8eede5b720a8c98ace8e43a570fea9c537697ff9ad775840",
    ("III", "RP5"):
        "01d9061db182b544241528d3d4bc0aa537350f8c4838fea62a9f7312e02f3528",
    ("III", "MRR"):
        "633aecf38cb2feeae4e18dbe58263a903f9061e19ea515a18b1a1b2ff0a68274",
    ("III", "DABRR"):
        "b6b4a86ddb2168373ebbae494dad0697b8b9443376470b9af8a83a9d512667f2",
    ("IV", "RR"):
        "187a50e05737d0ab8c7fd9c867bcf2ce95c4ff4c7a278833a386800fe37d738f",
    ("IV", "DQRRR"):
        "a2923ef98bcf363575891bba26dafd08b3c8e1f408db5b5fc58faf70ca268303",
    ("IV", "IRRVQ"):
        "db17115bd8ab8b7c6a0474fd34e6eef3f16473ccd99cc1935f425bd9ce39b8f4",
    ("IV", "SARR"):
        "a99bab755b1ca2ba4d41277996a6bd1b302d105ece93915d3e9f42c09b4230a3",
    ("IV", "RP5"):
        "5f7456958aed98f6e5796cbcf62ddaaaa4d3ded8836af0fedd14ae0bb5d4930d",
    ("IV", "MRR"):
        "8256c5c15bc14e79a1382c420d8507ddc0c59eca4b01f9561cc2f6d4d57f5745",
    ("IV", "DABRR"):
        "01260c59dfda43a03edf9c2ac30e601d3cc6297f1ccd8979b21d75af1645dafe",
    ("V", "RR"):
        "7817f6afd48847ea9d754918e0063e7d666ea7e7277949289ee33300f64cc940",
    ("V", "DQRRR"):
        "a6e7d685355716b2bca0cebedfc4656a7072c1072bbab389b8a9958c048b3ab8",
    ("V", "IRRVQ"):
        "c90cf2ee6a19dae6cc03d3b906985804a997c18c8e771965fbad1189d4f8c04c",
    ("V", "SARR"):
        "04194ed10a971e71d37e758bc1f6f5c59439c846ae7093fb93883cbf418f9d3d",
    ("V", "RP5"):
        "1b48cc201a9d1d717ec7f2698f30e2a614de1c2740768321d118332a77659fe0",
    ("V", "MRR"):
        "20c8550119b4a94f52b32834e4b8d2aef2c8a9b75973af7b9464373879b6ea03",
    ("V", "DABRR"):
        "c57164abc7a020f9086392954b4e15dea36819eeb5c5ed207409064de55c3a5d",
    ("VI", "RR"):
        "088a2f80c0335a17c8ca0faca73c5fccf24dee541e7296ef055de891fac69055",
    ("VI", "DQRRR"):
        "5ae543de8bbae024cba5afe55063bc852299ce14ab1096f1151ce76eff92c4fc",
    ("VI", "IRRVQ"):
        "d985ac6408d928aa10efc54328d5ba49479404208338d73617e94481f1791946",
    ("VI", "SARR"):
        "68d6de01d9a2474ac751206e1e15aab259e2f0d3a741aa0fa72a5b4af255a038",
    ("VI", "RP5"):
        "1ebf249279dd74c603bbb4d44664ccf95c9601e1dd529f7d99237bd85f6dfa4a",
    ("VI", "MRR"):
        "8573df882138a680186cae60d6ee2a479de7fc5bd2100c9c0f6ae5c1d385cf5e",
    ("VI", "DABRR"):
        "78b24914b7ea98382f46ef192be3d2524e1bffded17605cb3cd0126ca6ef1ee1",
    ("ILL", "RR"):
        "5627a4f6e5ca91549085839f638f726c89ee84bab3719e93346bb48c9446aa58",
    ("ILL", "DQRRR"):
        "62d01423040f3f54413e044e7debf889bf97e6c150f97f6d454210bf5a3ca90f",
    ("ILL", "IRRVQ"):
        "0e8e3cd02817746f41358d08dec582de84e941e1c3b9a9f4214fcfe8e32a5a32",
    ("ILL", "SARR"):
        "4a92012651a00037a250e65db63d0fc3d8a1b9dd539b74de0a301bcb25891954",
    ("ILL", "RP5"):
        "113b979a6a5f8ea9d7bce3753026eb7c5cc09e67cb549309737ef4fd73b22e5a",
    ("ILL", "MRR"):
        "b293301c90e1a777d3773b89b82744a1d90d7d16a2f1ee793afe0139c78fc0a8",
    ("ILL", "DABRR"):
        "b74d1ed7cd398dab1c9bc85fa11565b6d0ed2e77d4593fa62e196551ab8fc709",
    ("seeds 0..199", "RR"):
        "77083065bb165eea8fce7c86920f358900e1dc6920b2441f00cc47c5daffb4e0",
    ("seeds 0..199", "DQRRR"):
        "30239ab5d14178d2f25fae32054bd2872f2b634e858156537809538cab4f8f59",
    ("seeds 0..199", "IRRVQ"):
        "d39ce01e8cc1a715641031c4b3c3196f0672353b14cebd69193c9e0ca35c2ab9",
    ("seeds 0..199", "SARR"):
        "8f4725775f1d45a61957fd7c5ab6545db34d48f36a9c4bf3a86dfcd4b9dff259",
    ("seeds 0..199", "RP5"):
        "253921e28b92aac8a98fc6e51548bd171862bb102e4d7ed2c15af54cca947623",
    ("seeds 0..199", "MRR"):
        "77eaf92c889f46dd4d007c065bec18a4221bf0a7cac39bdbb9fade097fa47580",
    ("seeds 0..199", "DABRR"):
        "4bf2f29134f1663b28790b7004b8787a69cab4e6fb1433c9044df71214b2a0b7",
}


@pytest.mark.parametrize("source,name", sorted(TRACE_DIGESTS))
def test_trace_is_unchanged(source, name):
    assert _digest(source, name) == TRACE_DIGESTS[source, name], \
        f"{name} trace on {source} differs from the recorded one"
