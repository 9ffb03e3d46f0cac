"""`tools/artifact_digests.py` writes one artifact of every kind rslab
produces; two runs of it into different directories must write the same
bytes, file for file."""
import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "artifact_digests.py"


def test_every_artifact_kind_is_byte_identical_across_runs(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    printed = []
    for name in ("first", "second"):
        assert tool.main([str(tmp_path / name)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    paths = [line.split("  ", 1)[1] for line in printed[0].splitlines()]
    assert {pathlib.Path(p).suffix for p in paths} == {
        ".rsds", ".rsck", ".rsam", ".csv", ".json", ".ppm"
    }
    for kind in ("crosslayer", "grid", "divergence", "evolution", "threatgrid"):
        assert f"experiments/{kind}/summary.json" in paths
