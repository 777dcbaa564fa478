"""Archive persistence: round-trips, determinism, corruption detection,
and regression against the committed reference archives."""
import hashlib
import pathlib
import warnings

import pytest

from hopflab import store
from hopflab.bimodlab import core

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
STANDARD = ("H00", "H11", "H20", "H02", "H22")


def _same_module(a, b):
    if (a.name, a.side, a.dim) != (b.name, b.side, b.dim):
        return False
    if a.basis != b.basis or list(a.weights) != list(b.weights):
        return False
    for x, y in ((a.left, b.left), (a.right, b.right)):
        if (x is None) != (y is None):
            return False
        if x is not None and any(x[g] != y[g] for g in core.GENERATORS):
            return False
    return True


@pytest.mark.parametrize("name", STANDARD)
def test_round_trip_standard_modules(tmp_path, name):
    mod = core.standard_module(name)
    path = tmp_path / (name + ".hopflab")
    store.save_module(mod, path)
    back = store.load_module(path)
    assert _same_module(mod, back)
    # coordinates work on the reloaded module
    last = mod.dim - 1
    assert back.coords(mod.basis[-1])[last] == mod.coords(mod.basis[-1])[last]


def test_one_sided_module_round_trip(tmp_path):
    mod = core.closure([core.standard_seed("H11")], side="left",
                       name="H11-left")
    assert mod.right is None
    path = tmp_path / "left.hopflab"
    store.save_module(mod, path)
    back = store.load_module(path)
    assert _same_module(mod, back)


def test_saves_are_byte_identical(tmp_path):
    mod = core.standard_module("H20")
    p1, p2 = tmp_path / "a", tmp_path / "b"
    store.save_module(mod, p1)
    store.save_module(mod, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checksum_corruption_detected(tmp_path):
    mod = core.standard_module("H20")
    path = tmp_path / "m.hopflab"
    store.save_module(mod, path)
    raw = path.read_text()
    idx = raw.index("0 0 ")
    path.write_text(raw[:idx] + raw[idx:].replace("0 0 ", "0 1 ", 1))
    with pytest.raises(store.CorruptArchive, match="checksum"):
        store.load_module(path)


def test_truncation_detected(tmp_path):
    mod = core.standard_module("H00")
    path = tmp_path / "m.hopflab"
    store.save_module(mod, path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(store.CorruptArchive):
        store.load_module(path)


def _reseal(body):
    return body + "checksum %s\n" % hashlib.sha256(
        body.encode("utf-8")).hexdigest()


def test_edited_matrix_entry_fails_revalidation(tmp_path):
    mod = core.standard_module("H20")
    path = tmp_path / "m.hopflab"
    store.save_module(mod, path)
    body, _, _ = path.read_text().rpartition("checksum ")
    lines = body.splitlines()
    at = next(i for i, l in enumerate(lines)
              if l.startswith("matrix left E")) + 1
    i, j, _ = lines[at].split(" ", 2)
    lines[at] = "%s %s q^7" % (i, j)
    path.write_text(_reseal("\n".join(lines) + "\n"))
    with pytest.raises(store.CorruptArchive, match="revalidation"):
        store.load_module(path)


@pytest.mark.parametrize("matrix", ("left K", "left K^-1", "right K",
                                    "right K^-1"))
@pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
def test_edited_k_matrix_entry_fails_revalidation(tmp_path, matrix, where):
    # the K and K^-1 matrices are checked in closed form, not by acting
    mod = core.standard_module("H11")
    path = tmp_path / "m.hopflab"
    store.save_module(mod, path)
    body, _, _ = path.read_text().rpartition("checksum ")
    lines = body.splitlines()
    at = lines.index("matrix %s" % matrix) + 1
    i, j, c = lines[at].split(" ", 2)
    assert i == j  # the matrix is diagonal
    if where == "diagonal":
        lines[at] = "%s %s %s q" % (i, j, c)
    else:
        lines.insert(at + 1, "%s %d 1" % (j, (int(j) + 1) % mod.dim))
    path.write_text(_reseal("\n".join(lines) + "\n"))
    with pytest.raises(store.CorruptArchive, match="revalidation"):
        store.load_module(path)


def _resealed_fixture(tmp_path, edit):
    """h20.hopflab with edit applied to its body lines, resealed."""
    body, _, _ = (FIXTURES / "h20.hopflab").read_text().rpartition(
        "checksum ")
    lines = body.splitlines()
    edit(lines)
    path = tmp_path / "m.hopflab"
    path.write_text(_reseal("\n".join(lines) + "\n"))
    return path


def test_negative_matrix_index_rejected(tmp_path):
    # Python would wrap -1 around to the last row
    def edit(lines):
        lines[lines.index("8 7 q")] = "-1 7 q"
    with pytest.raises(store.CorruptArchive, match="out of range"):
        store.load_module(_resealed_fixture(tmp_path, edit))


def test_duplicated_matrix_entry_rejected(tmp_path):
    def edit(lines):
        at = lines.index("matrix left E") + 1
        lines.insert(at, lines[at])
    with pytest.raises(store.CorruptArchive, match="out of order"):
        store.load_module(_resealed_fixture(tmp_path, edit))


def test_zero_matrix_entry_rejected(tmp_path):
    def edit(lines):
        lines.insert(lines.index("matrix left E") + 1, "0 0 0")
    with pytest.raises(store.CorruptArchive, match="zero matrix entry"):
        store.load_module(_resealed_fixture(tmp_path, edit))


def test_dependent_basis_rejected(tmp_path):
    mod = core.standard_module("H20")
    path = tmp_path / "m.hopflab"
    store.save_module(mod, path)
    body, _, _ = path.read_text().rpartition("checksum ")
    lines = body.splitlines()
    first = next(i for i, l in enumerate(lines) if l == "begin basis") + 1
    lines[first + 1] = lines[first]
    path.write_text(_reseal("\n".join(lines) + "\n"))
    with pytest.raises(store.CorruptArchive):
        store.load_module(path)


def test_stale_engine_version_warns_but_loads(tmp_path):
    mod = core.standard_module("H00")
    path = tmp_path / "m.hopflab"
    store.save_module(mod, path)
    body, _, _ = path.read_text().rpartition("checksum ")
    body = body.replace("engine ", "engine 0.0.0-", 1)
    path.write_text(_reseal(body))
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        back = store.load_module(path)
    assert back.dim == mod.dim
    assert any(w.category is store.StaleEngineVersion for w in wlist)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        store.load_module(tmp_path / "nope.hopflab")


@pytest.mark.parametrize("name", ("H11", "H20", "H02"))
def test_fixture_regression(name):
    path = FIXTURES / (name.lower() + ".hopflab")
    archived = store.load_module(path)
    fresh = core.standard_module(name)
    assert _same_module(archived, fresh)
    # the committed bytes are exactly what the current engine writes
    assert path.read_bytes() == store._render(fresh).encode("utf-8")
