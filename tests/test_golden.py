"""Pinned bytes of the integer-only artifacts.

A small synthetic config goes through ``run`` and through the five staged
commands, and a small hand-built log through ``ingest``.  The sha256 of
every artifact that holds only integers and strings must equal the value
recorded before the bulk writers replaced the per-line ones, so a change
to how these files are produced cannot change their bytes unnoticed.
Float CSVs are left out: their last bits may depend on the numpy build.
"""

import json

from tagwalk.cli import main
from tagwalk.formats import sha256_of

CONFIG = {
    "seed": 11,
    "graph": {"type": "watts_strogatz", "n": 12_000, "k": 4, "p_rewire": 0.2},
    "walk": {"origin": 9_998, "n_rw": 400,
             "lengths": {"type": "power_law", "exponent": 2.0,
                         "l_min": 1, "l_max": 300}},
    "emit_traces": True,
}
SYNTHETIC = ["substrate.edges", "traces.txt", "cooc.edges", "heaps.csv",
             "observables/degree_dist.csv", "observables/frequency_rank.csv"]
INGESTED = ["corpus.jsonl", "cooc_labels.tsv", "rejects.csv", "cooc.edges",
            "heaps.csv", "observables/degree_dist.csv",
            "observables/frequency_rank.csv"]

TS_MIN = 978307200
# quotes, backslashes, a tab, non-ASCII text and the empty tag
TAGS = ["web", "WEB", "rdf", "owl", "café", 'say "hi"', "back\\slash",
        "tab\there", "", "ontology", "naïve", "日本語", "x" * 40]
FOCUS = ["Semantic", "SEMANTIC", "semantic"]

GOLDEN = {
    "run/substrate.edges": "52010246845aa780f42d02c2ea01b2c3ad1328cc73a171534beb668599430875",
    "run/traces.txt": "0f3cc2e4042295aac49912305ad32f12b3d48beb10866d9899ecaebaa640cf05",
    "run/cooc.edges": "6dec0a2ab502d3d318a2bd941c57aabcb44de31c1b741596d2663309843278af",
    "run/heaps.csv": "1e80c81783a76a83aec59cebd2d4b82343ac99b01f0a60de91ce7c968b0660ad",
    "run/observables/degree_dist.csv": "db8d00bcc082697ded73c813b9db0d0dae4b0c8733ce138cbb1fb65a64a63e0c",
    "run/observables/frequency_rank.csv": "08b167a1d75b3c6a7dfe2a0b3c6780628722d7270e7eebc92dce5d015bc528d4",
    "staged/substrate.edges": "52010246845aa780f42d02c2ea01b2c3ad1328cc73a171534beb668599430875",
    "staged/traces.txt": "0f3cc2e4042295aac49912305ad32f12b3d48beb10866d9899ecaebaa640cf05",
    "staged/cooc.edges": "6dec0a2ab502d3d318a2bd941c57aabcb44de31c1b741596d2663309843278af",
    "staged/heaps.csv": "1e80c81783a76a83aec59cebd2d4b82343ac99b01f0a60de91ce7c968b0660ad",
    "staged/observables/degree_dist.csv": "db8d00bcc082697ded73c813b9db0d0dae4b0c8733ce138cbb1fb65a64a63e0c",
    "staged/observables/frequency_rank.csv": "08b167a1d75b3c6a7dfe2a0b3c6780628722d7270e7eebc92dce5d015bc528d4",
    "ingest/corpus.jsonl": "ec95b2ea325add9a77610005eea981b0206944155a142e1f35c8aed04ec81dd8",
    "ingest/cooc_labels.tsv": "dfefeb5163b17d5293d14beb6df4201074a755387d9d33353d4748986f3dd097",
    "ingest/rejects.csv": "402492d2f222310757565c0c876d27251cc8f0d9e8569a2301d1b4625c060518",
    "ingest/cooc.edges": "1b50c8720362a531ad3af114c235994a119cac41dbccc04e38006fddbfbe136c",
    "ingest/heaps.csv": "3c38860ca87e8145671718050fbd13fbe5014f9706dcb54d03b4122f1de476b7",
    "ingest/observables/degree_dist.csv": "9626529bc7412192810e6f296fe29224988176b8ffbfbddba0448b2a50d7fd37",
    "ingest/observables/frequency_rank.csv": "aac54345b193964da84638625bf2f7b2ca531a8780f98ad8abf21ab14197e2eb",
}


def write_log(path) -> None:
    """600 posts from fixed arithmetic: malformed, old, tagless and good lines."""
    lines = []
    for i in range(600):
        tags = [TAGS[(5 * i + 3 * j) % len(TAGS)] for j in range(i % 6)]
        if i % 3:
            tags.append(FOCUS[i % 4 % 3])
        post = {"user": f"u{i % 17}\"{'é' * (i % 2)}", "resource": f"r\\{i % 23}",
                "ts": TS_MIN + (i * 7919) % 5000 - (10 ** 6 if i % 37 == 3 else 0),
                "tags": tags}
        line = json.dumps(post, ensure_ascii=bool(i % 2))
        lines.append(line[:-2] if i % 41 == 5 else line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def artifact_hashes(tmp_path) -> dict[str, str]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    for stage in ("generate", "walk", "cooc", "stats", "theory"):
        assert main([stage, "--config", str(cfg), "--out", str(tmp_path / "staged")]) == 0
    log = tmp_path / "log.jsonl"
    write_log(log)
    ing = tmp_path / "ingest.json"
    ing.write_text(json.dumps({"seed": 3, "ingest": {
        "input": str(log), "focus_tag": "semantic", "ts_min": TS_MIN}}))
    assert main(["ingest", "--config", str(ing), "--out", str(tmp_path / "ingest")]) == 0
    names = ([f"{d}/{f}" for d in ("run", "staged") for f in SYNTHETIC]
             + [f"ingest/{f}" for f in INGESTED])
    return {name: sha256_of(tmp_path / name) for name in names}


def test_artifact_bytes_are_pinned(tmp_path):
    assert artifact_hashes(tmp_path) == GOLDEN
