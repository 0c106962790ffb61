"""A committed cache directory in today's on-disk format.

``fixtures/uav_codesign_cache/`` holds the 8 entries that ``repro run
examples/scenarios/uav_codesign.json --cache DIR`` writes from an
empty directory.  The CLI must replay it with zero oracle calls, and
writing the same entries again must reproduce every file byte for
byte, so neither the keys nor the entry format can drift unnoticed.
"""

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.engine import ResultCache

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "uav_codesign_cache"
SCENARIO = ROOT / "examples" / "scenarios" / "uav_codesign.json"


def _files(directory):
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).glob("*.json"))}


def test_fixture_has_the_scenarios_eight_entries():
    assert len(_files(FIXTURE)) == 8


def test_run_replays_the_fixture_with_zero_oracle_calls(tmp_path, capsys):
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE, cache)
    assert main(["run", str(SCENARIO), "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "oracle calls: 0 (cache hits: 8" in out
    assert _files(cache) == _files(FIXTURE)


def test_put_many_rewrites_the_fixture_byte_for_byte(tmp_path):
    entries = {}
    for name, data in _files(FIXTURE).items():
        document = json.loads(data)
        assert name == f"{document['key']}.json"
        entries[document["key"]] = document["value"]
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put_many(entries)
    assert _files(tmp_path / "cache") == _files(FIXTURE)
    assert not list((tmp_path / "cache").glob("*.tmp"))
