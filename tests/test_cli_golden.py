"""Golden CLI outputs: for each command line, the exit code, the sha256 of
stdout (with the output directory written as ``<out>``) and the sha256 of
every file the command wrote, recorded with the front end that wrote each
file as soon as its result was ready (numpy 2.4.6)."""

import contextlib
import hashlib
import io

import pytest

from zonecast import bundled_scenario
from zonecast.cli import main

SCENARIOS = {
    name: str(bundled_scenario(name)) for name in ("fig5_line3", "grid9_corner", "grid9_middle")
}
LINE3 = SCENARIOS["fig5_line3"]

CASES = {
    **{
        f"run-{name}-{mac}": ["run", "--scenario", path, "--mac", mac, "--trace", "--out", "<out>"]
        for name, path in SCENARIOS.items()
        for mac in ("l3", "csma")
    },
    "run-seed": ["run", "--scenario", LINE3, "--seed", "5", "--out", "<out>"],
    "dump-matrix": ["dump-matrix", "--scenario", LINE3, "--vehicle", "1"],
    "sweep-counts": ["sweep", "--counts", "3,4", "--trials", "2", "--seed", "5", "--out", "<out>"],
    "sweep-counts-csma": [
        "sweep", "--counts", "3,4", "--trials", "2", "--seed", "5",
        "--mac", "csma", "--scenario", LINE3, "--out", "<out>",
    ],
    "sweep-preset": [
        "sweep", "--preset", "paper-fig8", "--trials", "1", "--seed", "7", "--out", "<out>",
    ],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(argv: list[str], out) -> tuple[int, str, dict[str, str]]:
    """(exit code, stdout digest, {written file: digest}) of one call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(out) if arg == "<out>" else arg for arg in argv])
    files = {}
    if out.exists():
        files = {str(p.relative_to(out)): _sha(p.read_bytes()) for p in sorted(out.rglob("*"))}
    return code, _sha(stdout.getvalue().replace(str(out), "<out>").encode()), files


GOLDEN = {
    "dump-matrix": (
        0,
        "2d2f8866e41130dac2962fbd1730f11f7b1db4fb096e4e394dd6ecdd1bef2f5d",
        {},
    ),
    "run-fig5_line3-csma": (
        0,
        "7fd2d51df2ffb125202c5df475c758611c5a3aff45aebaf94ec79d5805aa5cd5",
        {
            "final_matrix.txt": "1b42dd79334ef82b0342784286b8fd4055d185596faa6eca29cb7221171489c3",
            "metrics.csv": "7a09061b1443fbb19910848d8f3a601130cbaa83ebb55348ce08f34f52b9a837",
            "trace.txt": "ec0aecc8f82464f0f4e129701f6567df4eef1dc1309c0e66ee92d6a1e95eddda",
            "vehicles.csv": "a91de9ddcbb84073d55521d0c7d7b2feeaf09c1d7e23402283c2fe62df82e4da",
        },
    ),
    "run-fig5_line3-l3": (
        0,
        "238b04b03eee0748dcca2fc0c05bc59529c1fb1d75e2026b24325e6f0734771f",
        {
            "final_matrix.txt": "1b42dd79334ef82b0342784286b8fd4055d185596faa6eca29cb7221171489c3",
            "metrics.csv": "d2158b6d15a1f7c645bda2e7f24d50d0697549f16354a8567d85602615a57f55",
            "trace.txt": "8b8f8c577b020a3e8c746ff67ed757f44116091adbc488f6c2721dfdb0e41eed",
            "vehicles.csv": "ef995518eda107cc656ee8bcb407cd8e1f899e8d23a224161e0ac730bde4e90e",
        },
    ),
    "run-grid9_corner-csma": (
        2,
        "9b83bc72e1b95e71d1ade318ead9db750bd924fd1673c3b9d37d0227d0f30dc8",
        {
            "final_matrix.txt": "098260694e719794115efa0b007d492069b98275d7ea8cbc8f518069c583ec6d",
            "metrics.csv": "43ea63b0dd388116b7be8760ba432df2b70198f274dc49959f2f5a385333b89d",
            "trace.txt": "349384d9ed94c99c055989421460c39249beb125e6767d7e92644ed048eebcd6",
            "vehicles.csv": "b63dfca0e169e21cebd9f79e2401e92b690731428de26e2fd691bc53c7268692",
        },
    ),
    "run-grid9_corner-l3": (
        0,
        "cfb58d32378e1fdb01ec025e42f185178cd6365226261ad8c8a82531276dbcbd",
        {
            "final_matrix.txt": "25eddea6901f4f813d71bc56a354315c26512867fefd18e7009ab0eb3716f801",
            "metrics.csv": "34d80d397f3ad2d39d88f99ed9ce0bdb09cd75be851f43008093795bc045b6eb",
            "trace.txt": "99109c57dc375fa6e8e77665f98114cdd5e252b150ddb016d0704fba6128567e",
            "vehicles.csv": "162b81d9a8e44212ef363c67a0cbde80ff980be92a776ee4393508ce17d65729",
        },
    ),
    "run-grid9_middle-csma": (
        2,
        "92628839d914cbd49e61051217f6bc4fcc87f3cdc4ace51342411c1e62c88d28",
        {
            "final_matrix.txt": "098260694e719794115efa0b007d492069b98275d7ea8cbc8f518069c583ec6d",
            "metrics.csv": "527858050a4285debba81f6cf3aa095122cafcb84622de9c92116adad41e7e48",
            "trace.txt": "90a20fbe6dff18e90de8f0efe575dd395d216eb81eb4f6af3c4f579d9165235a",
            "vehicles.csv": "c8273920af65e726c9df39c937743385e3b5c88316b3807f3d30ef4e3f712791",
        },
    ),
    "run-grid9_middle-l3": (
        0,
        "c6e966ff37285b86799acb535a08bde44e7599b26883064ae80c862b2359c151",
        {
            "final_matrix.txt": "25eddea6901f4f813d71bc56a354315c26512867fefd18e7009ab0eb3716f801",
            "metrics.csv": "9a353d2a6ae8dd02da82335d836790a661b5838801bf84b56d3a6128ebdfa208",
            "trace.txt": "6fac9cd9d248262b1a2b99fd029f29a69c447e5296a49dfb85e97ee237171bae",
            "vehicles.csv": "ac92d367790fa166abfd279ebea4416154f7074df84f1a90e072573f9da890b7",
        },
    ),
    "run-seed": (
        0,
        "238b04b03eee0748dcca2fc0c05bc59529c1fb1d75e2026b24325e6f0734771f",
        {
            "final_matrix.txt": "1b42dd79334ef82b0342784286b8fd4055d185596faa6eca29cb7221171489c3",
            "metrics.csv": "cc34365a9bc8aae251d8448d85fcbe1eb4ed4e0d7237bac79c7e3b24401ba719",
            "vehicles.csv": "ef995518eda107cc656ee8bcb407cd8e1f899e8d23a224161e0ac730bde4e90e",
        },
    ),
    "sweep-counts": (
        2,
        "ebab60abd0e725fe75708f8c14bd0964af5f7b9a685fe48bb8025811e74791b4",
        {
            "sweep.csv": "60b49b3c9d976104d194aa4c119a3eb142d7b194a39c46d215c4cb49970ba615",
        },
    ),
    "sweep-counts-csma": (
        2,
        "ebab60abd0e725fe75708f8c14bd0964af5f7b9a685fe48bb8025811e74791b4",
        {
            "sweep.csv": "027fb487b7f20b8dbbeddcf39c52420fb87becc84991c0906a0012047b6ebdc4",
        },
    ),
    "sweep-preset": (
        2,
        "ab4965c86471392169a33252931b6d050afe1a5fe30086f6e7bf66899106c1c6",
        {
            "sweep_csma.csv": "df7d143d75fa22b52e1078309e9e611a08c919ce861aa66cf756ed3805985265",
            "sweep_l3.csv": "6ac52a522a5849d5c27be8a9f0381be280ad8804d119f8c9e206fff876f30022",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_unchanged(tmp_path, case):
    assert outcome(CASES[case], tmp_path / "out") == GOLDEN[case]
